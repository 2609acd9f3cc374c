package encmpi_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/cluster"
	"encmpi/internal/costmodel"
	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/session"
	"encmpi/internal/simnet"
)

// testKey is the hardcoded key, mirroring the paper's setup (§IV).
var testKey = bytes.Repeat([]byte{0x42}, 32)

// realEngine builds a RealEngine over a named codec; each rank needs its own
// nonce source (prefix = rank) so nonces never collide under the shared key.
func realEngine(t testing.TB, codecName string, rank int) *encmpi.RealEngine {
	t.Helper()
	codec, err := codecs.New(codecName, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return encmpi.NewRealEngine(codec, aead.NewCounterNonce(uint32(rank)))
}

// sessionEngine builds an aesstd session from cfg's key (and id, when set)
// attached as one endpoint — rank of size — charging scope (nil: unobserved).
func sessionEngine(t testing.TB, cfg session.Config, rank, size int, scope *obs.SessionScope) *session.Engine {
	t.Helper()
	cfg.Build = func(k []byte) (aead.Codec, error) { return codecs.New("aesstd", k) }
	s, err := session.New(cfg)
	if err == nil {
		err = s.Attach(rank, size, scope)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s.Engine()
}

// runEncrypted runs a body over shm with real per-rank engines.
func runEncrypted(t *testing.T, n int, codecName string, body func(e *encmpi.Comm)) {
	t.Helper()
	err := job.RunShm(n, func(c *mpi.Comm) {
		body(encmpi.Wrap(c, realEngine(t, codecName, c.Rank())))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncryptedSendRecvAllCodecs(t *testing.T) {
	for _, name := range codecs.GCMNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			runEncrypted(t, 2, name, func(e *encmpi.Comm) {
				switch e.Rank() {
				case 0:
					e.Send(1, 7, mpi.Bytes([]byte("secret payload")))
				case 1:
					buf, st, err := e.Recv(0, 7)
					if err != nil {
						t.Error(err)
					}
					if string(buf.Data) != "secret payload" {
						t.Errorf("got %q", buf.Data)
					}
					// Status reflects the plaintext after the in-Wait decrypt.
					if st.Len != len("secret payload") {
						t.Errorf("status len %d", st.Len)
					}
				}
			})
		})
	}
}

// TestCiphertextActuallyOnWire intercepts the underlying plaintext channel
// to prove the wire bytes are ciphertext of the right shape.
func TestCiphertextActuallyOnWire(t *testing.T) {
	runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
		msg := []byte("confidential data, must not appear on the wire")
		switch e.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes(msg))
		case 1:
			// Receive on the *plaintext* comm: we see exactly what travelled.
			wire, _ := e.Unwrap().Recv(0, 0)
			if wire.Len() != len(msg)+aead.Overhead {
				t.Errorf("wire length %d, want %d", wire.Len(), len(msg)+aead.Overhead)
			}
			if bytes.Contains(wire.Data, msg) || bytes.Contains(wire.Data, msg[:16]) {
				t.Error("plaintext leaked onto the wire")
			}
			// And it decrypts correctly by hand.
			codec, _ := codecs.New("aesstd", testKey)
			plain, err := aead.DecryptMessage(codec, nil, wire.Data)
			if err != nil || !bytes.Equal(plain, msg) {
				t.Errorf("manual decrypt failed: %v", err)
			}
		}
	})
}

// TestTamperedMessageRejected flips a wire byte in transit.
func TestTamperedMessageRejected(t *testing.T) {
	runEncrypted(t, 2, "aessoft", func(e *encmpi.Comm) {
		switch e.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes([]byte("integrity-protected")))
		case 1:
			wire, _ := e.Unwrap().Recv(0, 0)
			wire.Data[aead.NonceSize+2] ^= 0x40 // corrupt ciphertext
			codec, _ := codecs.New("aessoft", testKey)
			if _, err := aead.DecryptMessage(codec, nil, wire.Data); err == nil {
				t.Error("tampered message accepted")
			}
		}
	})
}

// TestDecryptHappensInWait verifies the §IV non-blocking property: the
// plaintext is not available before Wait, and Wait yields it.
func TestDecryptHappensInWait(t *testing.T) {
	runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
		switch e.Rank() {
		case 0:
			e.Send(1, 3, mpi.Bytes([]byte("deferred")))
		case 1:
			req := e.Irecv(0, 3)
			buf, _, err := e.Wait(req)
			if err != nil {
				t.Fatal(err)
			}
			if string(buf.Data) != "deferred" {
				t.Errorf("got %q", buf.Data)
			}
		}
	})
}

// TestWaitReportsAuthFailure injects a corrupted message through the
// plaintext layer and checks the error surfaces from Wait.
func TestWaitReportsAuthFailure(t *testing.T) {
	runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
		switch e.Rank() {
		case 0:
			// Send garbage that is long enough to parse but cannot
			// authenticate.
			e.Unwrap().Send(1, 0, mpi.Bytes(make([]byte, 64)))
		case 1:
			_, _, err := e.Recv(0, 0)
			if err == nil {
				t.Error("forged message accepted")
			}
		}
	})
}

func TestEncryptedCollectives(t *testing.T) {
	runEncrypted(t, 4, "aesstd", func(e *encmpi.Comm) {
		// Bcast.
		var buf mpi.Buffer
		if e.Rank() == 2 {
			buf = mpi.Bytes([]byte("broadcast secret"))
		}
		got, err := e.Bcast(2, buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data) != "broadcast secret" {
			t.Errorf("rank %d bcast got %q", e.Rank(), got.Data)
		}

		// Allgather.
		all, err := e.Allgather(mpi.Bytes([]byte{byte(e.Rank() + 1)}))
		if err != nil {
			t.Fatal(err)
		}
		for r, b := range all {
			if len(b.Data) != 1 || b.Data[0] != byte(r+1) {
				t.Errorf("allgather[%d] = %v", r, b.Data)
			}
		}

		// Alltoall (Algorithm 1).
		blocks := make([]mpi.Buffer, e.Size())
		for d := range blocks {
			blocks[d] = mpi.Bytes([]byte(fmt.Sprintf("%d->%d secret", e.Rank(), d)))
		}
		res, err := e.Alltoall(blocks)
		if err != nil {
			t.Fatal(err)
		}
		for s, b := range res {
			want := fmt.Sprintf("%d->%d secret", s, e.Rank())
			if string(b.Data) != want {
				t.Errorf("alltoall from %d: %q", s, b.Data)
			}
		}

		// Alltoallv with ragged sizes.
		vblocks := make([]mpi.Buffer, e.Size())
		for d := range vblocks {
			vblocks[d] = mpi.Bytes(bytes.Repeat([]byte{byte(e.Rank())}, e.Rank()+d+1))
		}
		vres, err := e.Alltoallv(vblocks)
		if err != nil {
			t.Fatal(err)
		}
		for s, b := range vres {
			if b.Len() != s+e.Rank()+1 {
				t.Errorf("alltoallv from %d: %d bytes", s, b.Len())
			}
		}
	})
}

// TestEncryptedSendrecvWaitall exercises the remaining routine surface.
func TestEncryptedSendrecvWaitall(t *testing.T) {
	runEncrypted(t, 2, "aessoft", func(e *encmpi.Comm) {
		peer := 1 - e.Rank()
		got, _, err := e.Sendrecv(peer, 1, mpi.Bytes([]byte{byte(e.Rank())}), peer, 1)
		if err != nil || got.Data[0] != byte(peer) {
			t.Errorf("sendrecv: %v %v", got.Data, err)
		}

		const k = 5
		if e.Rank() == 0 {
			reqs := make([]*encmpi.Request, k)
			for i := range reqs {
				reqs[i] = e.Isend(1, 10+i, mpi.Bytes([]byte{byte(i)}))
			}
			if err := e.Waitall(reqs); err != nil {
				t.Error(err)
			}
		} else {
			reqs := make([]*encmpi.Request, k)
			for i := range reqs {
				reqs[i] = e.Irecv(0, 10+i)
			}
			if err := e.Waitall(reqs); err != nil {
				t.Error(err)
			}
		}
		e.Barrier()
	})
}

// TestNullEngineIsTransparent: the baseline engine must not alter sizes.
func TestNullEngineIsTransparent(t *testing.T) {
	err := job.RunShm(2, func(c *mpi.Comm) {
		e := encmpi.Wrap(c, encmpi.NullEngine{})
		switch c.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes([]byte("clear")))
		case 1:
			buf, st, err := e.Recv(0, 0)
			if err != nil || string(buf.Data) != "clear" || st.Len != 5 {
				t.Errorf("null engine mangled: %q %v %v", buf.Data, st, err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestModelEngineChargesTime verifies the simulated crypto cost lands on the
// virtual clock and expands wire sizes by 28.
func TestModelEngineChargesTime(t *testing.T) {
	profile, err := costmodel.Lookup("cryptopp", costmodel.GCC485, 256)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.PaperTestbed(2, 2)
	var encElapsed, baseElapsed time.Duration
	run := func(enc bool) time.Duration {
		var elapsed time.Duration
		_, err := job.RunSim(spec, simnet.Eth10G(), func(c *mpi.Comm) {
			var eng encmpi.Engine = encmpi.NullEngine{}
			if enc {
				eng = encmpi.NewModelEngine(profile)
			}
			// Disable the transparent chunked path: this test quantifies the
			// full serial crypto cost, which overlap would (by design) hide.
			e := encmpi.Wrap(c, eng, encmpi.WithPipeline(-1, 0))
			size := 1 << 20
			switch c.Rank() {
			case 0:
				start := c.Proc().Now()
				for i := 0; i < 3; i++ {
					e.Send(1, 0, mpi.Synthetic(size))
					if _, _, err := e.Recv(1, 0); err != nil {
						t.Error(err)
					}
				}
				elapsed = c.Proc().Now() - start
			case 1:
				for i := 0; i < 3; i++ {
					buf, _, err := e.Recv(0, 0)
					if err != nil {
						t.Error(err)
					}
					if buf.Len() != size {
						t.Errorf("plaintext size %d", buf.Len())
					}
					e.Send(0, 0, mpi.Synthetic(size))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	baseElapsed = run(false)
	encElapsed = run(true)
	// CryptoPP at 1 MB under gcc adds roughly 1MB/320MBps per direction per
	// side — the encrypted run must be several times slower.
	if encElapsed < 2*baseElapsed {
		t.Errorf("model engine too cheap: base %v, encrypted %v", baseElapsed, encElapsed)
	}
}

// TestKeyExchangeAllRanksAgree runs the future-work key distribution.
func TestKeyExchangeAllRanksAgree(t *testing.T) {
	for _, n := range []int{2, 5} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			keys := make([][]byte, n)
			err := job.RunShm(n, func(c *mpi.Comm) {
				key, err := encmpi.ExchangeKey(c, 32)
				if err != nil {
					t.Error(err)
					return
				}
				keys[c.Rank()] = key
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 1; r < n; r++ {
				if !bytes.Equal(keys[0], keys[r]) {
					t.Fatalf("rank %d derived a different key", r)
				}
			}
			if len(keys[0]) != 32 {
				t.Fatalf("key length %d", len(keys[0]))
			}
			// And the key must actually work end to end.
			err = job.RunShm(2, func(c *mpi.Comm) {
				codec, err := codecs.New("aesstd", keys[0])
				if err != nil {
					t.Error(err)
					return
				}
				e := encmpi.Wrap(c, encmpi.NewRealEngine(codec, aead.NewCounterNonce(uint32(c.Rank()))))
				if c.Rank() == 0 {
					e.Send(1, 0, mpi.Bytes([]byte("keyed")))
				} else {
					buf, _, err := e.Recv(0, 0)
					if err != nil || string(buf.Data) != "keyed" {
						t.Errorf("exchange-derived key failed: %v %q", err, buf.Data)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeyExchangeRejectsBadLength checks parameter validation.
func TestKeyExchangeRejectsBadLength(t *testing.T) {
	err := job.RunShm(1, func(c *mpi.Comm) {
		if _, err := encmpi.ExchangeKey(c, 20); err == nil {
			t.Error("bad key length accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEncryptedOverTCP runs the full encrypted stack over real sockets.
func TestEncryptedOverTCP(t *testing.T) {
	err := job.RunTCP(2, func(c *mpi.Comm) {
		e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()))
		payload := bytes.Repeat([]byte{0xEE}, 70<<10) // rendezvous-sized
		switch c.Rank() {
		case 0:
			e.Send(1, 0, mpi.Bytes(payload))
		case 1:
			buf, _, err := e.Recv(0, 0)
			if err != nil {
				t.Error(err)
			}
			if !bytes.Equal(buf.Data, payload) {
				t.Error("payload corrupted over encrypted TCP")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestModelEnginePreservesRealBytes: headers and other real payloads must
// survive the model engine unchanged (only time is synthetic).
func TestModelEnginePreservesRealBytes(t *testing.T) {
	profile, err := costmodel.Lookup("boringssl", costmodel.GCC485, 256)
	if err != nil {
		t.Fatal(err)
	}
	eng := encmpi.NewModelEngine(profile)
	payload := []byte("real header bytes through the model")
	wire := eng.Seal(nil, mpi.Bytes(payload))
	if wire.Len() != len(payload)+aead.Overhead {
		t.Fatalf("wire len %d", wire.Len())
	}
	back, err := eng.Open(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Data) != string(payload) {
		t.Fatalf("payload mangled: %q", back.Data)
	}
	// Synthetic payloads stay synthetic.
	synWire := eng.Seal(nil, mpi.Synthetic(100))
	if !synWire.IsSynthetic() || synWire.Len() != 128 {
		t.Fatalf("synthetic seal: %v %d", synWire.IsSynthetic(), synWire.Len())
	}
	synBack, err := eng.Open(nil, synWire)
	if err != nil || !synBack.IsSynthetic() || synBack.Len() != 100 {
		t.Fatalf("synthetic open: %v %d %v", synBack.IsSynthetic(), synBack.Len(), err)
	}
	// Undersized wire messages are rejected.
	if _, err := eng.Open(nil, mpi.Synthetic(10)); err == nil {
		t.Fatal("short wire accepted")
	}
}

// TestEngineNames sanity-checks reporting labels.
func TestEngineNames(t *testing.T) {
	if (encmpi.NullEngine{}).Name() != "unencrypted" {
		t.Error("null engine name")
	}
	p, _ := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	if got := encmpi.NewModelEngine(p).Name(); got != "cryptopp-256(mvapich)" {
		t.Errorf("model engine name %q", got)
	}
	re := realEngine(t, "aesref", 0)
	if re.Name() != "aesref-256" {
		t.Errorf("real engine name %q", re.Name())
	}
	if re.WireLen(100) != 128 || (encmpi.NullEngine{}).WireLen(100) != 100 {
		t.Error("wire-length reporting")
	}
}

// TestEncryptedCommOverSplit: the encrypted layer must compose with
// sub-communicators (row/column patterns).
func TestEncryptedCommOverSplit(t *testing.T) {
	runEncrypted(t, 4, "aesstd", func(e *encmpi.Comm) {
		c := e.Unwrap()
		row := c.Split(c.Rank()/2, c.Rank()%2)
		// Build an encrypted wrapper over the subcommunicator.
		sub := encmpi.Wrap(row, realEngine(t, "aesstd", c.Rank()))
		all, err := sub.Allgather(mpi.Bytes([]byte{byte(c.Rank())}))
		if err != nil {
			t.Error(err)
			return
		}
		if len(all) != 2 {
			t.Fatalf("group size %d", len(all))
		}
		base := byte(c.Rank() / 2 * 2)
		if all[0].Data[0] != base || all[1].Data[0] != base+1 {
			t.Errorf("rank %d: group gathered %v %v", c.Rank(), all[0].Data, all[1].Data)
		}
	})
}

// TestNoncePrefixesNeverCollide: two ranks sharing a key but using distinct
// prefixes can never emit the same nonce — the invariant that makes the
// paper's shared-key design safe in our implementation.
func TestNoncePrefixesNeverCollide(t *testing.T) {
	a := aead.NewCounterNonce(0)
	b := aead.NewCounterNonce(1)
	seen := make(map[[12]byte]int)
	var n [12]byte
	for i := 0; i < 5000; i++ {
		if err := a.Next(n[:]); err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[n]; dup {
			t.Fatalf("nonce collision with source %d", prev)
		}
		seen[n] = 0
		if err := b.Next(n[:]); err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[n]; dup {
			t.Fatalf("nonce collision with source %d", prev)
		}
		seen[n] = 1
	}
}
