package faulty_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/encmpi"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/session"
	"encmpi/internal/transport/faulty"
	"encmpi/internal/transport/shm"
)

// runFaulty launches n ranks over a faulty-wrapped shm transport.
func runFaulty(t *testing.T, n int, ft *faulty.Transport, w *mpi.World, body func(c *mpi.Comm)) {
	t.Helper()
	var group sched.Group
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		comm := w.AttachRank(rank, group.Proc())
		wg.Add(1)
		go func(c *mpi.Comm) {
			defer wg.Done()
			body(c)
		}(comm)
	}
	wg.Wait()
	_ = ft
}

func setup(n int) (*faulty.Transport, *mpi.World) {
	inner := shm.New()
	ft := faulty.New(inner)
	w := mpi.NewWorld(n, ft, 64<<10)
	inner.Bind(w)
	return ft, w
}

// TestCorruptionDetectedByGCM is the integrity story end to end: a byte
// flipped on the wire must surface as an authentication error, never as
// silently wrong data.
func TestCorruptionDetectedByGCM(t *testing.T) {
	ft, w := setup(2)
	ft.SetFault(faulty.Corrupt, nil)
	key := bytes.Repeat([]byte{9}, 32)

	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		codec, err := codecs.New("aesstd", key)
		if err != nil {
			t.Error(err)
			return
		}
		e := encmpi.Wrap(c, encmpi.NewRealEngine(codec, aead.NewCounterNonce(uint32(c.Rank()))))
		switch c.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes([]byte("must arrive intact or not at all")))
		case 1:
			_, _, err := e.Recv(0, 0)
			if !errors.Is(err, aead.ErrAuth) {
				t.Errorf("corrupted message produced %v, want ErrAuth", err)
			}
		}
	})
	if ft.Injected == 0 {
		t.Fatal("fault was never injected")
	}
}

// TestCorruptionUndetectedWithoutEncryption documents the contrast: the
// plaintext MPI happily delivers tampered data — the vulnerability the
// paper's integrity guarantee closes.
func TestCorruptionUndetectedWithoutEncryption(t *testing.T) {
	ft, w := setup(2)
	ft.SetFault(faulty.Corrupt, nil)

	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, mpi.Bytes([]byte("unprotected payload")))
		case 1:
			buf, _ := c.Recv(0, 0)
			if string(buf.Data) == "unprotected payload" {
				t.Error("expected tampered plaintext to slip through (fault not applied?)")
			}
		}
	})
}

// TestSelectiveCorruption only corrupts one tag and leaves the rest intact.
func TestSelectiveCorruption(t *testing.T) {
	ft, w := setup(2)
	ft.SetFault(faulty.Corrupt, func(m *mpi.Msg) bool { return m.Tag == 13 })
	key := bytes.Repeat([]byte{1}, 16)

	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		codec, err := codecs.New("aessoft", key)
		if err != nil {
			t.Error(err)
			return
		}
		e := encmpi.Wrap(c, encmpi.NewRealEngine(codec, aead.NewCounterNonce(uint32(c.Rank()))))
		switch c.Rank() {
		case 0:
			e.Send(1, 13, mpi.Bytes([]byte("victim")))
			e.Send(1, 14, mpi.Bytes([]byte("clean")))
		case 1:
			if _, _, err := e.Recv(0, 13); err == nil {
				t.Error("victim message accepted")
			}
			buf, _, err := e.Recv(0, 14)
			if err != nil || string(buf.Data) != "clean" {
				t.Errorf("clean message damaged: %v %q", err, buf.Data)
			}
		}
	})
}

// TestDropCompletesSendButNotRecv: drops complete the sender locally (the
// NIC accepted the bytes) while the receiver never matches — observable via
// Iprobe rather than a hang.
func TestDropCompletesSendButNotRecv(t *testing.T) {
	ft, w := setup(2)
	ft.SetFault(faulty.Drop, nil)

	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 0, mpi.Bytes([]byte("lost")))
			c.Wait(req) // eager: completes regardless of delivery
		case 1:
			if ok, _ := c.Iprobe(0, 0); ok {
				t.Error("dropped message arrived")
			}
		}
	})
	if ft.Injected != 1 {
		t.Errorf("injected = %d", ft.Injected)
	}
}

// realComm wraps c with a real AES-GCM engine keyed identically on all ranks.
func realComm(t *testing.T, c *mpi.Comm) *encmpi.Comm {
	t.Helper()
	codec, err := codecs.New("aesstd", bytes.Repeat([]byte{7}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return encmpi.Wrap(c, encmpi.NewRealEngine(codec, aead.NewCounterNonce(uint32(c.Rank()))))
}

// TestTruncateDetected: a wire message missing trailing bytes must be
// rejected — by the GCM tag when enough of the frame survives, or by the
// malformed-wire check when the frame is shorter than the AEAD overhead.
func TestTruncateDetected(t *testing.T) {
	for _, cut := range []int{1, 16, 600} { // clip tag bytes, the whole tag, everything
		ft, w := setup(2)
		ft.TruncateBytes = cut
		ft.SetFault(faulty.Truncate, nil)
		runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
			e := realComm(t, c)
			switch c.Rank() {
			case 0:
				e.Send(1, 0, mpi.Bytes(bytes.Repeat([]byte{0xC3}, 512)))
			case 1:
				_, _, err := e.Recv(0, 0)
				if !errors.Is(err, aead.ErrAuth) && !errors.Is(err, aead.ErrMalformed) {
					t.Errorf("cut=%d: truncated message produced %v, want ErrAuth or ErrMalformed", cut, err)
				}
			}
		})
		if ft.InjectedBy(faulty.Truncate) != 1 {
			t.Errorf("cut=%d: injected %d truncations", cut, ft.InjectedBy(faulty.Truncate))
		}
	}
}

// TestExtendDetected: garbage appended to a wire message breaks the tag.
func TestExtendDetected(t *testing.T) {
	ft, w := setup(2)
	ft.ExtendBytes = 3
	ft.SetFault(faulty.Extend, nil)
	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		e := realComm(t, c)
		switch c.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes([]byte("exact length is part of the contract")))
		case 1:
			if _, _, err := e.Recv(0, 0); !errors.Is(err, aead.ErrAuth) {
				t.Errorf("extended message produced %v, want ErrAuth", err)
			}
		}
	})
	if ft.InjectedBy(faulty.Extend) != 1 {
		t.Errorf("injected %d extensions", ft.InjectedBy(faulty.Extend))
	}
}

// TestReplayAcceptedWithoutGuard documents the gap the paper scopes out: a
// replayed ciphertext carries a genuine tag, so a bare GCM engine accepts it
// and hands back the FIRST message's plaintext in place of the second.
func TestReplayAcceptedWithoutGuard(t *testing.T) {
	ft, w := setup(2)
	ft.SetFault(faulty.Replay, nil)
	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		e := realComm(t, c)
		switch c.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes([]byte("transfer $10")))
			e.Send(1, 1, mpi.Bytes([]byte("transfer $99")))
		case 1:
			first, _, err := e.Recv(0, 0)
			if err != nil || string(first.Data) != "transfer $10" {
				t.Errorf("first message damaged: %v %q", err, first.Data)
			}
			second, _, err := e.Recv(0, 1)
			if err != nil {
				t.Errorf("unguarded engine rejected the replay: %v", err)
			} else if string(second.Data) != "transfer $10" {
				t.Errorf("replay not substituted: got %q", second.Data)
			}
		}
	})
	if ft.InjectedBy(faulty.Replay) != 1 {
		t.Errorf("injected %d replays", ft.InjectedBy(faulty.Replay))
	}
}

// TestReplayRejectedBySession: the session engine rejects the replayed
// record the bare engine accepted — as a replay (session.ErrReplay) when it
// lands where an identically-bound record was expected, and as a plain
// authentication failure when the receiver derived a different context for
// that slot (here: another tag).
func TestReplayRejectedBySession(t *testing.T) {
	for _, tc := range []struct {
		name      string
		secondTag int
		want      error
	}{
		{"same-binding", 0, session.ErrReplay},
		{"other-tag", 1, aead.ErrAuth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft, w := setup(2)
			ft.SetFault(faulty.Replay, nil)
			key := bytes.Repeat([]byte{7}, 32)
			runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
				s, err := session.New(session.Config{
					Key:   key,
					Build: func(k []byte) (aead.Codec, error) { return codecs.New("aesstd", k) },
				})
				if err == nil {
					err = s.Attach(c.Rank(), c.Size(), nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
				e := encmpi.Wrap(c, s.Engine())
				switch c.Rank() {
				case 0:
					e.Send(1, 0, mpi.Bytes([]byte("counter 1")))
					e.Send(1, tc.secondTag, mpi.Bytes([]byte("counter 2")))
				case 1:
					if _, _, err := e.Recv(0, 0); err != nil {
						t.Errorf("genuine message rejected: %v", err)
					}
					if _, _, err := e.Recv(0, tc.secondTag); !errors.Is(err, tc.want) {
						t.Errorf("replayed message produced %v, want %v", err, tc.want)
					}
				}
			})
		})
	}
}

// TestReorderDeliversBoth: the held message is released behind the next
// send, so both messages arrive (tag matching hides the inversion from the
// application) and exactly one reorder is counted.
func TestReorderDeliversBoth(t *testing.T) {
	ft, w := setup(2)
	ft.SetFaultN(faulty.Reorder, 1, nil)
	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		e := realComm(t, c)
		switch c.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes([]byte("held back")))
			e.Send(1, 1, mpi.Bytes([]byte("overtakes")))
		case 1:
			a, _, errA := e.Recv(0, 0)
			b, _, errB := e.Recv(0, 1)
			if errA != nil || string(a.Data) != "held back" {
				t.Errorf("held message damaged: %v %q", errA, a.Data)
			}
			if errB != nil || string(b.Data) != "overtakes" {
				t.Errorf("overtaking message damaged: %v %q", errB, b.Data)
			}
		}
	})
	if ft.InjectedBy(faulty.Reorder) != 1 {
		t.Errorf("injected %d reorders", ft.InjectedBy(faulty.Reorder))
	}
}

// TestReorderFlush: when nothing follows the held message, Flush releases
// it so the receiver is not starved forever.
func TestReorderFlush(t *testing.T) {
	ft, w := setup(2)
	ft.SetFaultN(faulty.Reorder, 1, nil)
	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, mpi.Bytes([]byte("only message"))) // eager: completes at hold time
			ft.Flush()
		case 1:
			buf, _ := c.Recv(0, 0)
			if string(buf.Data) != "only message" {
				t.Errorf("flushed message damaged: %q", buf.Data)
			}
		}
	})
}

// TestDuplicateEagerDelivery: a duplicated eager message matches twice at
// the receiver — the runtime queues the second copy as unexpected instead of
// panicking, and GCM authenticates both (same ciphertext, genuine tag).
func TestDuplicateEagerDelivery(t *testing.T) {
	ft, w := setup(2)
	ft.SetFault(faulty.DuplicateDelivery, nil)
	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		e := realComm(t, c)
		switch c.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes([]byte("once")))
		case 1:
			for i := 0; i < 2; i++ {
				buf, _, err := e.Recv(0, 0)
				if err != nil || string(buf.Data) != "once" {
					t.Errorf("copy %d: %v %q", i, err, buf.Data)
				}
			}
		}
	})
	if ft.InjectedBy(faulty.DuplicateDelivery) != 1 {
		t.Errorf("injected %d duplicates", ft.InjectedBy(faulty.DuplicateDelivery))
	}
}

// TestDuplicateRendezvousDataIsStray: duplicating the DATA frame of a
// rendezvous transfer hits the receiver with a sequence number it already
// consumed. The runtime must drop it as a stray — not panic — and account
// for it.
func TestDuplicateRendezvousDataIsStray(t *testing.T) {
	ft, w := setup(2)
	ft.SetFault(faulty.DuplicateDelivery, func(m *mpi.Msg) bool { return m.Kind == mpi.KindData })
	payload := bytes.Repeat([]byte{0xEE}, 128<<10) // above the 64 KiB eager threshold
	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, mpi.Bytes(payload))
		case 1:
			buf, _ := c.Recv(0, 0)
			if !bytes.Equal(buf.Data, payload) {
				t.Error("rendezvous payload damaged")
			}
		}
	})
	if ft.InjectedBy(faulty.DuplicateDelivery) == 0 {
		t.Fatal("no DATA frame was duplicated")
	}
	if w.StrayMessages() == 0 {
		t.Error("duplicated DATA frame was not recorded as a stray")
	}
}

// TestWaitallDrainsAfterAuthFailure: MPI_Waitall semantics require every
// request to complete even when one fails. Corrupt exactly the middle
// message of a batch, Waitall the batch, and verify (a) the error is
// ErrAuth, (b) every other request still delivered its payload, and (c) the
// communicator remains usable for a clean round trip afterwards.
func TestWaitallDrainsAfterAuthFailure(t *testing.T) {
	const n = 5
	const victim = 2
	ft, w := setup(2)
	ft.SetFault(faulty.Corrupt, func(m *mpi.Msg) bool { return m.Tag == victim })
	runFaulty(t, 2, ft, w, func(c *mpi.Comm) {
		e := realComm(t, c)
		switch c.Rank() {
		case 0:
			for tag := 0; tag < n; tag++ {
				e.Send(1, tag, mpi.Bytes([]byte{byte(tag), 0xAB, 0xCD}))
			}
			buf, _, err := e.Recv(1, 99)
			if err != nil || string(buf.Data) != "still alive" {
				t.Errorf("post-failure round trip broken at sender: %v %q", err, buf.Data)
			}
		case 1:
			reqs := make([]*encmpi.Request, n)
			for tag := 0; tag < n; tag++ {
				reqs[tag] = e.Irecv(0, tag)
			}
			if err := e.Waitall(reqs); !errors.Is(err, aead.ErrAuth) {
				t.Errorf("Waitall produced %v, want ErrAuth", err)
			}
			// Every request is drained: re-waiting yields each payload (or
			// the recorded auth failure) without blocking or panicking.
			for tag, req := range reqs {
				buf, _, err := e.Wait(req)
				if tag == victim {
					if !errors.Is(err, aead.ErrAuth) {
						t.Errorf("victim request: %v, want ErrAuth", err)
					}
					continue
				}
				if err != nil || len(buf.Data) != 3 || buf.Data[0] != byte(tag) {
					t.Errorf("request %d not drained cleanly: %v %v", tag, err, buf.Data)
				}
			}
			// The failure left no dangling state behind.
			e.Send(0, 99, mpi.Bytes([]byte("still alive")))
		}
	})
	if ft.InjectedBy(faulty.Corrupt) != 1 {
		t.Errorf("injected %d corruptions", ft.InjectedBy(faulty.Corrupt))
	}
}
