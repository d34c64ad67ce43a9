package main

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"testing"

	"repro/internal/channel"
	"repro/internal/channel/ufvariation"
	"repro/internal/sim"
	"repro/internal/sweepd"
	"repro/internal/vfs"
)

// shedClient refuses every call with the gate's overload verdict.
type shedClient struct{ err error }

func (c shedClient) Lease(context.Context, sweepd.LeaseRequest) (sweepd.LeaseResponse, error) {
	return sweepd.LeaseResponse{}, c.err
}
func (c shedClient) Heartbeat(context.Context, sweepd.HeartbeatRequest) (sweepd.HeartbeatResponse, error) {
	return sweepd.HeartbeatResponse{}, c.err
}
func (c shedClient) Complete(context.Context, sweepd.CompleteRequest) (sweepd.CompleteResponse, error) {
	return sweepd.CompleteResponse{}, c.err
}
func (c shedClient) CompleteBatch(context.Context, sweepd.CompleteBatchRequest) (sweepd.CompleteBatchResponse, error) {
	return sweepd.CompleteBatchResponse{}, c.err
}
func (c shedClient) Release(context.Context, sweepd.ReleaseRequest) (sweepd.ReleaseResponse, error) {
	return sweepd.ReleaseResponse{}, c.err
}

func TestTracedClientPassesErrorsThrough(t *testing.T) {
	shed := &sweepd.OverloadError{Endpoint: "lease", RetryAfter: 42}
	tr := newTracer()
	c := &tracedClient{inner: shedClient{err: shed}, tr: tr, trace: 1}
	ctx := context.Background()
	errs := []error{}
	_, err := c.Lease(ctx, sweepd.LeaseRequest{})
	errs = append(errs, err)
	_, err = c.Heartbeat(ctx, sweepd.HeartbeatRequest{})
	errs = append(errs, err)
	_, err = c.Complete(ctx, sweepd.CompleteRequest{})
	errs = append(errs, err)
	_, err = c.CompleteBatch(ctx, sweepd.CompleteBatchRequest{})
	errs = append(errs, err)
	_, err = c.Release(ctx, sweepd.ReleaseRequest{})
	errs = append(errs, err)
	for i, err := range errs {
		var oe *sweepd.OverloadError
		if err != shed || !errors.As(err, &oe) || oe.RetryAfter != 42 {
			t.Errorf("call %d: error %v is not the inner *OverloadError", i, err)
		}
	}
	if got := len(tr.snapshot()); got != len(rpcNames) {
		t.Errorf("%d spans, want one per call (%d)", got, len(rpcNames))
	}
}

func TestTracedPhyPassesErrorsThrough(t *testing.T) {
	inner := &ufvariation.LinkPhy{} // no machine: Transmit must fail
	_, want := inner.Transmit(channel.Bits{1, 0}, sim.Millisecond, false)
	if want == nil {
		t.Fatal("bare LinkPhy without a machine did not fail")
	}
	p := &tracedPhy{inner: inner, tr: newTracer()}
	if _, err := p.Transmit(channel.Bits{1, 0}, sim.Millisecond, false); err == nil || err.Error() != want.Error() {
		t.Errorf("wrapped error %v, want %v", err, want)
	}
	if tracking, locked := p.SyncState(); tracking || !locked {
		t.Errorf("SyncState not forwarded: %v %v", tracking, locked)
	}
}

func TestCountingFSCountsAndPassesErrorsThrough(t *testing.T) {
	dir := t.TempDir()
	c := &countingFS{inner: vfs.OS{}}
	if err := vfs.WriteFileAtomic(c, filepath.Join(dir, "a.txt"), func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if c.bytes.Load() != 5 || c.renames.Load() != 1 || c.syncs.Load() < 2 || len(c.syncMicros()) != int(c.syncs.Load()) {
		t.Errorf("bytes %d renames %d syncs %d", c.bytes.Load(), c.renames.Load(), c.syncs.Load())
	}
	err := c.Rename(filepath.Join(dir, "missing"), filepath.Join(dir, "b"))
	want := vfs.OS{}.Rename(filepath.Join(dir, "missing"), filepath.Join(dir, "b"))
	if !errors.Is(err, fs.ErrNotExist) || err.Error() != want.Error() {
		t.Errorf("rename error %v, want %v", err, want)
	}
}
