package sim

// DetectionTimeout is the simulated seconds between a processor dying
// and a healthy peer declaring it dead. The machine model detects a dead
// processor by missed heartbeats: peers exchange liveness probes every
// millisecond, and a processor that misses three consecutive probes is
// declared dead. The probe interval is deliberately coarse next to the
// per-message times of the model (MsgTime of a kilobyte is ~10µs on the
// default machine), and more than one miss guards against a probe lost
// to transient congestion; the simulator models the resulting latency,
// not the probes. Detection is therefore a fixed stall after the real
// death time — no per-message overhead accrues while everything is
// healthy.
const DetectionTimeout = 3 * 1e-3
