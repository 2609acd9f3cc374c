package encmpi_test

import (
	"bytes"
	"errors"
	"testing"

	"encmpi"
)

// TestPublicAPIRoundTrip exercises the facade exactly as the README shows.
func TestPublicAPIRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	err := encmpi.RunShm(2, func(c *encmpi.Comm) {
		codec, err := encmpi.NewCodec("aesstd", key)
		if err != nil {
			t.Error(err)
			return
		}
		e := encmpi.Encrypt(c, codec, uint32(c.Rank()))
		switch c.Rank() {
		case 0:
			e.Send(1, 0, encmpi.Bytes([]byte("public api")))
		case 1:
			buf, st, err := e.Recv(0, 0)
			if err != nil || string(buf.Data) != "public api" {
				t.Errorf("recv: %q %v", buf.Data, err)
			}
			if st.Source != 0 {
				t.Errorf("status: %+v", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPISimulation runs a simulated encrypted job via the facade.
func TestPublicAPISimulation(t *testing.T) {
	model, err := encmpi.LibraryModel("cryptopp", "gcc485", 256)
	if err != nil {
		t.Fatal(err)
	}
	baselineRes := runSim(t, encmpi.Unencrypted())
	encRes := runSim(t, model)
	if encRes <= baselineRes {
		t.Errorf("encrypted sim (%d) not slower than baseline (%d)", encRes, baselineRes)
	}

	if _, err := encmpi.LibraryModel("cryptopp", "icc", 256); err == nil {
		t.Error("bad variant accepted")
	}
}

func runSim(t *testing.T, eng encmpi.Engine) int64 {
	t.Helper()
	spec := encmpi.PaperTestbed(4, 2)
	res, err := encmpi.RunSim(spec, encmpi.IB40G(), func(c *encmpi.Comm) {
		e := encmpi.EncryptWith(c, eng)
		blocks := make([]encmpi.Buffer, c.Size())
		for d := range blocks {
			blocks[d] = encmpi.Synthetic(64 << 10)
		}
		if _, err := e.Alltoall(blocks); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return int64(res.Elapsed)
}

// TestPublicKeyExchange runs the facade's key exchange plus encrypted use.
func TestPublicKeyExchange(t *testing.T) {
	err := encmpi.RunTCP(3, func(c *encmpi.Comm) {
		key, err := encmpi.ExchangeKey(c, 32)
		if err != nil {
			t.Error(err)
			return
		}
		codec, err := encmpi.NewCodec("aessoft", key)
		if err != nil {
			t.Error(err)
			return
		}
		e := encmpi.Encrypt(c, codec, uint32(c.Rank()))
		got, err := e.Allgather(encmpi.Bytes([]byte{byte(c.Rank())}))
		if err != nil {
			t.Error(err)
			return
		}
		for r, b := range got {
			if b.Data[0] != byte(r) {
				t.Errorf("allgather[%d] = %v", r, b.Data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCodecNames sanity-checks the registry surface.
func TestCodecNames(t *testing.T) {
	names := encmpi.CodecNames()
	if len(names) < 5 {
		t.Errorf("registry too small: %v", names)
	}
	if encmpi.Overhead != 28 {
		t.Errorf("Overhead = %d", encmpi.Overhead)
	}
}

// TestFacadeSentinels provokes each typed error of the README's "Error
// handling contract" through the wire-fault adversary and matches it with
// errors.Is on the facade's re-export — what cmd/, examples/ and bench/
// (facade-only by rule) can see.
func TestFacadeSentinels(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 32)
	// Each case: rank 0 sends two messages at tag 0, rank 1 receives both
	// and the last failed receive must match the sentinel. between runs on
	// both ranks after the first message.
	cases := []struct {
		name    string
		want    error
		fault   encmpi.FaultConfig
		sess    []encmpi.SessionOption
		size    int
		between func(s *encmpi.Session)
	}{
		{name: "ErrAuth", want: encmpi.ErrAuth, size: 64,
			fault: encmpi.FaultConfig{Mode: encmpi.FaultCorrupt}},
		// The second record is replaced by the already-admitted first.
		{name: "ErrReplay", want: encmpi.ErrReplay, size: 64,
			fault: encmpi.FaultConfig{Mode: encmpi.FaultReplay}},
		// Same substitution, but both ends rekeyed in between with no grace
		// window: the replayed record names a retired epoch.
		{name: "ErrStaleEpoch", want: encmpi.ErrStaleEpoch, size: 64,
			fault:   encmpi.FaultConfig{Mode: encmpi.FaultReplay},
			sess:    []encmpi.SessionOption{encmpi.WithEpochGrace(-1)},
			between: func(s *encmpi.Session) { s.Rekey() }},
		// 4+28 wire bytes cut to 22: too short for a nonce and a tag.
		{name: "ErrMalformedWire", want: encmpi.ErrMalformedWire, size: 4,
			fault: encmpi.FaultConfig{Mode: encmpi.FaultTruncate, TruncateBytes: 10}},
		// A chunked transfer whose frames arrive twice: the rendezvous
		// protocol refuses the out-of-sequence frame.
		{name: "ErrTransport", want: encmpi.ErrTransport, size: 512 << 10,
			fault: encmpi.FaultConfig{Mode: encmpi.FaultDuplicate}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			payload := encmpi.Bytes(bytes.Repeat([]byte{0x5A}, tc.size))
			var got error
			err := encmpi.RunShm(2, func(c *encmpi.Comm) {
				sess, err := encmpi.NewSession(key, tc.sess...)
				if err != nil {
					t.Error(err)
					return
				}
				e, err := sess.Attach(c)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 2; i++ {
					if c.Rank() == 0 {
						e.Send(1, 0, payload)
					} else if _, _, err := e.Recv(0, 0); err != nil {
						got = err
					}
					if i == 0 && tc.between != nil {
						tc.between(sess)
					}
				}
			}, encmpi.WithFaults(tc.fault))
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}
