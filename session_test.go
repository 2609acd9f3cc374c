package encmpi_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"encmpi"
)

func sessionKey(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

// findSession returns the snapshot entry for one session scope id.
func findSession(t *testing.T, snap encmpi.MetricsSnapshot, id string) encmpi.SessionSnapshot {
	t.Helper()
	for _, ss := range snap.Sessions {
		if ss.ID == id {
			return ss
		}
	}
	t.Fatalf("session %s missing from snapshot (have %d sessions)", id, len(snap.Sessions))
	return encmpi.SessionSnapshot{}
}

// TestSessionSmoke multiplexes two independent sessions over one job's
// shared transport: both exchange traffic concurrently under the same tags,
// which only works if each session's frames stay on their own wire lane. It
// runs over both the shm ring transport and TCP — lane demultiplexing is a
// transport contract, not a TCP feature. Referenced by scripts/check.sh.
func TestSessionSmoke(t *testing.T) {
	t.Run("shm", func(t *testing.T) { sessionSmoke(t, encmpi.RunShm) })
	t.Run("tcp", func(t *testing.T) { sessionSmoke(t, encmpi.RunTCP) })
}

func sessionSmoke(t *testing.T, run func(int, func(*encmpi.Comm), ...encmpi.Option) error) {
	keyA, keyB := sessionKey(0xA1), sessionKey(0xB2)
	const msgs = 32
	reg := encmpi.NewRegistry(2)
	var scopeA, scopeB string
	err := run(2, func(c *encmpi.Comm) {
		sessA, err := encmpi.NewSession(keyA)
		if err != nil {
			t.Error(err)
			return
		}
		sessB, err := encmpi.NewSession(keyB)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			scopeA, scopeB = sessA.ScopeID(), sessB.ScopeID()
		}
		eA, err := sessA.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}
		eB, err := sessB.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}

		// Both sessions run the same tag space at once: lane demultiplexing
		// is what keeps a B record from matching an A receive.
		var wg sync.WaitGroup
		for name, e := range map[string]*encmpi.EncryptedComm{"A": eA, "B": eB} {
			wg.Add(1)
			go func(name string, e *encmpi.EncryptedComm) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					want := []byte(fmt.Sprintf("session %s message %d", name, i))
					if c.Rank() == 0 {
						if err := e.Send(1, i, encmpi.Bytes(want)); err != nil {
							t.Errorf("session %s send %d: %v", name, i, err)
						}
					} else {
						got, _, err := e.Recv(0, i)
						if err != nil {
							t.Errorf("session %s recv %d: %v", name, i, err)
							return
						}
						if !bytes.Equal(got.Data, want) {
							t.Errorf("session %s message %d: got %q", name, i, got.Data)
						}
					}
				}
			}(name, e)
		}
		wg.Wait()
	}, encmpi.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, id := range []string{scopeA, scopeB} {
		ss := findSession(t, snap, id)
		if ss.Sealed != msgs || ss.Opened != msgs {
			t.Errorf("session %s: sealed %d opened %d, want %d each", id, ss.Sealed, ss.Opened, msgs)
		}
		if ss.AuthFailures != 0 || ss.ReplayRejected != 0 || ss.StaleEpoch != 0 {
			t.Errorf("session %s: spurious rejections %+v", id, ss)
		}
	}
	if snap.UnattributedStrays != 0 {
		t.Errorf("unattributed strays: %d", snap.UnattributedStrays)
	}
}

// TestSessionSpliceRejected runs the cross-session splicing adversary: a
// ciphertext recorded on session A's lane is substituted for a session B
// record. The splice must fail AEAD authentication at session B (wrong key,
// wrong AAD) and be attributed as an auth failure — not survive as a stray.
func TestSessionSpliceRejected(t *testing.T) {
	keyA, keyB := sessionKey(0xC3), sessionKey(0xD4)
	reg := encmpi.NewRegistry(2)
	var scopeB string
	err := encmpi.RunTCP(2, func(c *encmpi.Comm) {
		sessA, _ := encmpi.NewSession(keyA)
		sessB, _ := encmpi.NewSession(keyB)
		if c.Rank() == 0 {
			scopeB = sessB.ScopeID()
		}
		eA, err := sessA.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}
		eB, err := sessB.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			// The A record is stashed by the adversary as donor material,
			// then the B record's payload is replaced with it.
			if err := eA.Send(1, 0, encmpi.Bytes([]byte("donor from session A"))); err != nil {
				t.Errorf("send A: %v", err)
			}
			if err := eB.Send(1, 0, encmpi.Bytes([]byte("victim on session B"))); err != nil {
				t.Errorf("send B: %v", err)
			}
		} else {
			if _, _, err := eA.Recv(0, 0); err != nil {
				t.Errorf("session A recv (un-spliced): %v", err)
			}
			if _, _, err := eB.Recv(0, 0); err == nil {
				t.Error("session B accepted a record sealed by session A")
			}
		}
	},
		encmpi.WithMetrics(reg),
		encmpi.WithFaults(encmpi.FaultConfig{Mode: encmpi.FaultSpliceSession, MaxInject: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.FaultsInjected == 0 {
		t.Error("no splice injected")
	}
	if ss := findSession(t, snap, scopeB); ss.AuthFailures == 0 {
		t.Errorf("splice not attributed to session B: %+v", ss)
	}
	if snap.Ranks[1].Crypto.AuthFailures == 0 {
		t.Error("splice not attributed to rank 1 as an auth failure")
	}
	if snap.UnattributedStrays != 0 {
		t.Errorf("spliced record survived as a stray: %d", snap.UnattributedStrays)
	}
}

// TestSessionReflectRejected bounces rank 0's record straight back at it
// with the endpoints swapped. The bounce arrives before the genuine reply
// and matches rank 0's posted receive, where the nonce-vs-match source check
// rejects it as an auth failure; the honest reply still goes through on the
// next receive.
func TestSessionReflectRejected(t *testing.T) {
	key := sessionKey(0xE5)
	reg := encmpi.NewRegistry(2)
	var scope string
	err := encmpi.RunShm(2, func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(key)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			scope = sess.ScopeID()
		}
		e, err := sess.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			if err := e.Send(1, 0, encmpi.Bytes([]byte("ping"))); err != nil {
				t.Errorf("send: %v", err)
			}
			// First receive matches the reflected copy of our own record.
			if _, _, err := e.Recv(1, 0); err == nil {
				t.Error("reflected record accepted")
			}
			// The genuine reply is next in line.
			got, _, err := e.Recv(1, 0)
			if err != nil {
				t.Errorf("honest reply after rejected reflection: %v", err)
			} else if !bytes.Equal(got.Data, []byte("pong")) {
				t.Errorf("reply payload: %q", got.Data)
			}
		} else {
			if _, _, err := e.Recv(0, 0); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if err := e.Send(0, 0, encmpi.Bytes([]byte("pong"))); err != nil {
				t.Errorf("reply: %v", err)
			}
		}
	},
		encmpi.WithMetrics(reg),
		encmpi.WithFaults(encmpi.FaultConfig{Mode: encmpi.FaultReflect, MaxInject: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if ss := findSession(t, snap, scope); ss.AuthFailures == 0 {
		t.Errorf("reflection not attributed as a session auth failure: %+v", ss)
	}
	if snap.Ranks[0].Crypto.AuthFailures == 0 {
		t.Error("reflection not attributed to rank 0")
	}
	if snap.UnattributedStrays != 0 {
		t.Errorf("reflected record survived as a stray: %d", snap.UnattributedStrays)
	}
}

// TestSessionReplayRejected replays a genuine ciphertext. The duplicate
// matches the receiver's second posted receive and must be rejected by the
// replay window as an auth failure.
func TestSessionReplayRejected(t *testing.T) {
	key := sessionKey(0xF6)
	reg := encmpi.NewRegistry(2)
	var scope string
	err := encmpi.RunShm(2, func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(key)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			scope = sess.ScopeID()
		}
		e, err := sess.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			// The adversary captures the first record and substitutes its
			// ciphertext for the second one's payload.
			if err := e.Send(1, 0, encmpi.Bytes([]byte("once"))); err != nil {
				t.Errorf("send: %v", err)
			}
			if err := e.Send(1, 0, encmpi.Bytes([]byte("twice"))); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			if _, _, err := e.Recv(0, 0); err != nil {
				t.Errorf("genuine recv: %v", err)
			}
			if _, _, err := e.Recv(0, 0); err == nil {
				t.Error("replayed record accepted")
			}
		}
	},
		encmpi.WithMetrics(reg),
		encmpi.WithFaults(encmpi.FaultConfig{Mode: encmpi.FaultReplay, MaxInject: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	ss := findSession(t, snap, scope)
	if ss.ReplayRejected == 0 || ss.AuthFailures == 0 {
		t.Errorf("replay not attributed (replay %d, auth %d)", ss.ReplayRejected, ss.AuthFailures)
	}
	if snap.UnattributedStrays != 0 {
		t.Errorf("replayed record survived as a stray: %d", snap.UnattributedStrays)
	}
}

// sessionRekeyHammer drives Send/Isend/chunked traffic through a session
// while both endpoints roll epochs mid-stream from a side goroutine. Honest
// traffic must never fail: in-flight old-epoch records (including chunked
// rendezvous segments mid-message) drain inside the grace window, and a
// peer that rekeyed first is opened via the derived-ahead epoch.
func sessionRekeyHammer(t *testing.T, run func(int, func(*encmpi.Comm), ...encmpi.Option) error, msgs int) {
	key := sessionKey(0x77)
	big := bytes.Repeat([]byte{0x5A}, 384<<10) // above the chunking threshold
	reg := encmpi.NewRegistry(2)
	var scope string
	err := run(2, func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(key)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			scope = sess.ScopeID()
		}
		e, err := sess.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}

		// Both ranks rekey on their own clocks: epochs roll mid-message and
		// the two ends are routinely one epoch apart.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := 3 * time.Millisecond
			if c.Rank() == 1 {
				interval = 5 * time.Millisecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if err := sess.Rekey(); err != nil {
						t.Errorf("rank %d rekey: %v", c.Rank(), err)
						return
					}
				}
			}
		}()

		for i := 0; i < msgs; i++ {
			small := []byte(fmt.Sprintf("small %d", i))
			if c.Rank() == 0 {
				if err := e.Send(1, 2*i, encmpi.Bytes(small)); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
				r := e.Isend(1, 2*i+1, encmpi.Bytes(big))
				if _, _, err := e.Wait(r); err != nil {
					t.Errorf("isend %d: %v", i, err)
				}
			} else {
				if _, _, err := e.Recv(0, 2*i); err != nil {
					t.Errorf("recv small %d: %v", i, err)
				}
				got, _, err := e.Recv(0, 2*i+1)
				if err != nil {
					t.Errorf("recv big %d: %v", i, err)
				} else if got.Len() != len(big) {
					t.Errorf("big %d: %d bytes, want %d", i, got.Len(), len(big))
				}
			}
		}
		close(stop)
		wg.Wait()
	}, encmpi.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	ss := findSession(t, snap, scope)
	if ss.AuthFailures != 0 || ss.ReplayRejected != 0 || ss.StaleEpoch != 0 {
		t.Errorf("honest traffic rejected under rekey: %+v", ss)
	}
	if ss.Rekeys == 0 || ss.Epoch == 0 {
		t.Errorf("no epoch ever rolled (rekeys %d, epoch %d)", ss.Rekeys, ss.Epoch)
	}
	if snap.UnattributedStrays != 0 {
		t.Errorf("strays under rekey: %d", snap.UnattributedStrays)
	}
}

// TestSessionRekeyUnderTraffic is the mid-transfer rekey gate; scripts/
// check.sh runs the package under -race, which makes this a concurrency
// check as much as a correctness one.
func TestSessionRekeyUnderTraffic(t *testing.T) {
	msgs := 30
	if testing.Short() {
		msgs = 8
	}
	t.Run("shm", func(t *testing.T) { sessionRekeyHammer(t, encmpi.RunShm, msgs) })
	t.Run("tcp", func(t *testing.T) { sessionRekeyHammer(t, encmpi.RunTCP, msgs/2) })
}

// TestSessionStaleEpochAfterGrace checks the hard boundary: once a retired
// epoch's grace window has passed, its records are rejected as stale-epoch
// auth failures, not opened.
func TestSessionStaleEpochAfterGrace(t *testing.T) {
	key := sessionKey(0x88)
	const grace = 50 * time.Millisecond
	reg := encmpi.NewRegistry(2)
	var scope string
	err := encmpi.RunShm(2, func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(key, encmpi.WithEpochGrace(grace))
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 1 {
			scope = sess.ScopeID()
		}
		e, err := sess.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			// Sealed under epoch 0; sits in rank 1's unmatched queue.
			if err := e.Send(1, 0, encmpi.Bytes([]byte("left on the shelf"))); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		c.Barrier()
		if c.Rank() == 1 {
			if err := sess.Rekey(); err != nil {
				t.Errorf("rekey: %v", err)
			}
			time.Sleep(2 * grace)
			if _, _, err := e.Recv(0, 0); err == nil {
				t.Error("record from an expired epoch was accepted")
			}
		}
	}, encmpi.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	ss := findSession(t, snap, scope)
	if ss.StaleEpoch == 0 || ss.AuthFailures == 0 {
		t.Errorf("stale-epoch rejection not attributed (stale %d, auth %d)", ss.StaleEpoch, ss.AuthFailures)
	}
}

// TestSessionCollectivesAndRekey runs the encrypted collectives through a
// session across an epoch roll: collective records carry their own AAD
// shapes (fan-out Dst wildcard, per-pair bindings) and must keep verifying
// after Rekey.
func TestSessionCollectivesAndRekey(t *testing.T) {
	key := sessionKey(0x99)
	err := encmpi.RunShm(4, func(c *encmpi.Comm) {
		sess, err := encmpi.NewSession(key)
		if err != nil {
			t.Error(err)
			return
		}
		e, err := sess.Attach(c)
		if err != nil {
			t.Error(err)
			return
		}
		for round := 0; round < 2; round++ {
			got, err := e.Bcast(0, encmpi.Bytes([]byte("root says")))
			if err != nil || !bytes.Equal(got.Data, []byte("root says")) {
				t.Errorf("round %d bcast: %v %q", round, err, got.Data)
			}
			mine := encmpi.Bytes([]byte(fmt.Sprintf("rank %d", c.Rank())))
			all, err := e.Allgather(mine)
			if err != nil {
				t.Errorf("round %d allgather: %v", round, err)
			} else {
				for i, b := range all {
					if want := fmt.Sprintf("rank %d", i); string(b.Data) != want {
						t.Errorf("round %d allgather[%d] = %q", round, i, b.Data)
					}
				}
			}
			blocks := make([]encmpi.Buffer, e.Size())
			for d := range blocks {
				blocks[d] = encmpi.Bytes([]byte(fmt.Sprintf("%d->%d", c.Rank(), d)))
			}
			res, err := e.Alltoall(blocks)
			if err != nil {
				t.Errorf("round %d alltoall: %v", round, err)
			} else {
				for i, b := range res {
					if want := fmt.Sprintf("%d->%d", i, c.Rank()); string(b.Data) != want {
						t.Errorf("round %d alltoall[%d] = %q", round, i, b.Data)
					}
				}
			}
			if round == 0 {
				if err := sess.Rekey(); err != nil {
					t.Errorf("rekey: %v", err)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSessionOptionValidation pins the facade's constructor contract.
func TestSessionOptionValidation(t *testing.T) {
	if _, err := encmpi.NewSession(sessionKey(1)[:5]); err == nil {
		t.Error("short key accepted")
	}
	if _, err := encmpi.NewSession(sessionKey(1), encmpi.WithSessionCodec("ccmsoft")); err == nil {
		t.Error("CCM codec accepted; sessions require AAD support")
	}
	if _, err := encmpi.NewSession(sessionKey(1), encmpi.WithSessionCodec("nope")); err == nil {
		t.Error("unknown codec accepted")
	}
	s, err := encmpi.NewSession(sessionKey(2), encmpi.WithSessionID(7))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 7 {
		t.Errorf("ID() = %d, want 7", s.ID())
	}
	if s.Lane() == 0 {
		t.Error("session landed on the legacy lane 0")
	}
	if s.Epoch() != 0 {
		t.Errorf("fresh session epoch = %d", s.Epoch())
	}
}
