package main

import (
	"sync/atomic"

	"github.com/ooc-hpf/passion/internal/iosim"
)

// countFS wraps the journal's MemFS and counts what durability costs:
// bytes handed to WriteAt and calls to Sync. Its files have a Sync
// method, so the journal takes its fsync path as it would on OS files.
type countFS struct {
	*iosim.MemFS
	writeBytes atomic.Int64
	syncs      atomic.Int64
}

func newCountFS() *countFS { return &countFS{MemFS: iosim.NewMemFS()} }

func (c *countFS) Create(name string) (iosim.File, error) {
	f, err := c.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(name string) (iosim.File, error) {
	f, err := c.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	iosim.File
	fs *countFS
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	return nil
}
