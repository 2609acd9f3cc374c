// secure-pipeline runs the paper's full security story end to end over real
// TCP sockets: ranks first establish a session key with the X25519 exchange
// (the paper's "future work" key distribution), then run an encrypted
// alltoall data-redistribution pipeline — an IS-style bucket shuffle — and
// verify both the plaintext results and that tampering is detected.
//
//	go run ./examples/secure-pipeline [-ranks 4] [-records 1000]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"sort"

	"encmpi"
)

func main() {
	ranks := flag.Int("ranks", 4, "number of ranks")
	records := flag.Int("records", 1000, "records per rank")
	flag.Parse()

	err := encmpi.RunTCP(*ranks, func(c *encmpi.Comm) {
		// Phase 1: agree on a fresh session key over the wire.
		key, err := encmpi.ExchangeKey(c, 32)
		if err != nil {
			log.Fatalf("rank %d: key exchange: %v", c.Rank(), err)
		}
		sess, err := encmpi.NewSession(key)
		if err != nil {
			log.Fatal(err)
		}
		e, err := sess.Attach(c)
		if err != nil {
			log.Fatal(err)
		}

		// Phase 2: bucket shuffle. Each rank generates records and routes
		// each to the rank that owns its bucket, encrypted in flight.
		p := e.Size()
		buckets := make([][]byte, p)
		for i := 0; i < *records; i++ {
			v := byte((c.Rank()*31 + i*17) % 251)
			buckets[int(v)%p] = append(buckets[int(v)%p], v)
		}
		blocks := make([]encmpi.Buffer, p)
		for d := range blocks {
			blocks[d] = encmpi.Bytes(buckets[d])
		}
		got, err := e.Alltoallv(blocks)
		if err != nil {
			log.Fatalf("rank %d: shuffle: %v", c.Rank(), err)
		}

		// Phase 3: verify every received record belongs to this rank's
		// bucket, and report totals through a reduction.
		var mine []byte
		for _, b := range got {
			mine = append(mine, b.Data...)
		}
		for _, v := range mine {
			if int(v)%p != c.Rank() {
				log.Fatalf("rank %d: record %d routed to wrong bucket", c.Rank(), v)
			}
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i] < mine[j] })

		total, err := e.Allreduce(encmpi.Float64Buffer([]float64{float64(len(mine))}), encmpi.Float64, encmpi.OpSum)
		if err != nil {
			log.Fatalf("rank %d: allreduce: %v", c.Rank(), err)
		}
		if c.Rank() == 0 {
			want := float64(*records * p)
			gotTotal := encmpi.Float64s(total)[0]
			if gotTotal != want {
				log.Fatalf("lost records: %v != %v", gotTotal, want)
			}
			fmt.Printf("shuffled %d records across %d ranks over encrypted TCP (session key exchanged via X25519)\n",
				int(gotTotal), p)
		}

		// Phase 4: demonstrate integrity — a forged ciphertext must be
		// rejected, not silently decoded.
		if c.Rank() == 0 {
			e.Unwrap().Send(1, 42, encmpi.Bytes(make([]byte, 64))) // not a valid ciphertext
		}
		if c.Rank() == 1 {
			if _, _, err := e.Recv(0, 42); !errors.Is(err, encmpi.ErrAuth) {
				log.Fatalf("forged message was not rejected as an authentication failure: %v", err)
			}
			fmt.Println("forged message correctly rejected by AES-GCM authentication")
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PASS")
}
