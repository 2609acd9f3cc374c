package encmpi_test

import (
	"bytes"
	"testing"

	"encmpi/internal/bufpool"
	"encmpi/internal/costmodel"
	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/session"
)

// TestOwnedInjectionKeepsEagerSemantics pins what owned injection must not
// change: below the pipeline threshold the caller may overwrite its plaintext
// the moment Isend returns, on every transport and under every engine, and
// the receiver still gets the original bytes. It also shows which branch each
// engine takes — observed from outside, through the pool and ring counters:
//
//   - session and real seal into a lease of their own, which is injected as it
//     is: one pooled buffer per record on the send side, never a second one
//     for an eager clone, and no plaintext-style slot capture on shm.
//   - null hands back the caller's storage and model a leaseless buffer, so the
//     protocol's eager capture (slot or pooled clone) still runs for them.
//
// Every lease handed out during the cell is back in the pool when it ends.
func TestOwnedInjectionKeepsEagerSemantics(t *testing.T) {
	const (
		size   = 4 << 10
		msgs   = 1000
		window = 8
	)
	profile, err := costmodel.Lookup("boringssl", costmodel.GCC485, 256)
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		mk   func(rank int) encmpi.Engine
		// private: the engine seals into a pooled lease of its own and opens
		// into a fresh pooled plaintext (one pooled buffer each).
		private bool
	}{
		{"session", func(r int) encmpi.Engine { return sessionEngine(t, session.Config{Key: testKey}, r, 2, nil) }, true},
		{"real", func(r int) encmpi.Engine { return realEngine(t, "aesstd", r) }, true},
		{"null", func(int) encmpi.Engine { return encmpi.NullEngine{} }, false},
		{"model", func(int) encmpi.Engine { return encmpi.NewModelEngine(profile) }, false},
	}
	transports := []struct {
		name string
		run  func(job.Options, job.Body) error
		opts job.Options
		// wireGets is what the transport itself leases per message (tcp's
		// frame read); rings marks slots a 4 KiB record fits.
		wireGets uint64
		rings    bool
	}{
		{"shm-rings", func(o job.Options, b job.Body) error { return job.RunShmOpts(2, o, b) }, job.Options{}, 0, true},
		// A 4 KiB record outgrows a 1 KiB slot: every acquire misses and the
		// pooled fallback runs, as it does when a ring is exhausted.
		{"shm-fallback", func(o job.Options, b job.Body) error { return job.RunShmOpts(2, o, b) },
			job.Options{ShmRingSlots: 2, ShmRingSlotBytes: 1 << 10}, 0, false},
		{"tcp", func(o job.Options, b job.Body) error { return job.RunTCPOpts(2, o, b) }, job.Options{}, 1, false},
	}
	pattern := func(buf []byte, i int) {
		for k := range buf {
			buf[k] = byte(i*31 + k)
		}
	}
	for _, tr := range transports {
		for _, eng := range engines {
			t.Run(tr.name+"/"+eng.name, func(t *testing.T) {
				reg := obs.NewRegistry(2)
				opts := tr.opts
				opts.Metrics = reg
				before := bufpool.Stats()
				err := tr.run(opts, func(c *mpi.Comm) {
					e := encmpi.Wrap(c, eng.mk(c.Rank()))
					if c.Rank() == 0 {
						buf := make([]byte, size)
						reqs := make([]*encmpi.Request, window)
						for i := 0; i < msgs; i += window {
							for k := range reqs {
								pattern(buf, i+k)
								reqs[k] = e.Isend(1, 0, mpi.Bytes(buf))
								// The send is still in flight: scribbling here
								// must not reach the receiver.
								for j := range buf {
									buf[j] = 0xEE
								}
							}
							if err := e.Waitall(reqs); err != nil {
								t.Error(err)
								return
							}
						}
						return
					}
					want := make([]byte, size)
					for i := 0; i < msgs; i++ {
						got, _, err := e.Recv(0, 0)
						if err != nil {
							t.Errorf("message %d: %v", i, err)
							return
						}
						pattern(want, i)
						if !bytes.Equal(got.Data, want) {
							t.Errorf("message %d does not carry the bytes Isend was given", i)
							return
						}
						got.Release()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				after := bufpool.Stats()
				gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
				if gets != puts {
					t.Errorf("pool unbalanced: %d leases out, %d back", gets, puts)
				}
				slotCaptures := reg.Snapshot().Total.Transport.SlotDirectEager
				if eng.private && slotCaptures != 0 {
					t.Errorf("%d sealed records went through the protocol's eager capture", slotCaptures)
				}
				if tr.rings {
					// Ring slots are not pooled leases, and a full ring falls
					// back to the pool: the exact split varies with timing.
					if !eng.private && slotCaptures == 0 {
						t.Error("no eager capture observed for an engine that seals into the caller's storage")
					}
					return
				}
				// Without a fitting slot the count is exact, and the send side
				// costs one pooled buffer either way: the seal lease of a
				// private capture (two would mean it was cloned as well), or
				// the eager clone of a borrowed one (none would mean the
				// caller's storage was injected).
				perMsg := 1 + tr.wireGets
				if eng.private {
					perMsg++ // the opened plaintext
				}
				if want := uint64(msgs) * perMsg; gets != want {
					t.Errorf("%d pooled buffers for %d messages, want %d per message", gets, msgs, perMsg)
				}
			})
		}
	}
}
