// Package passion is a from-scratch reproduction of "Data Access
// Reorganizations in Compiling Out-of-core Data Parallel Programs on
// Distributed Memory Machines" (Bordawekar, Choudhary, Thakur; Syracuse
// NPAC TR SCCS-622 / IPPS'97), the access-reorganization work of the
// PASSION project.
//
// The repository contains a mini-HPF frontend, a two-phase out-of-core
// compiler with the paper's I/O cost estimation and strategy selection, a
// PASSION-style out-of-core array runtime over local array files, a
// simulated distributed memory machine (message passing plus a parallel
// I/O subsystem calibrated against the Intel Touchstone Delta), and
// drivers that regenerate every table and figure of the paper's
// evaluation from compiled programs.
//
// Start with README.md for the tour, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the paper-versus-reproduction numbers. The
// subsystems live under internal/; runnable entry points live under cmd/
// and examples/. The benchmarks in bench_test.go regenerate each
// evaluation artifact at a reduced scale and report the simulated seconds
// as a custom metric (sim_s).
package passion
