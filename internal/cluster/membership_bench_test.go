package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/resource"
)

// BenchmarkHandoffUnderLoad measures one full make-before-break
// ownership handoff over the wire — export on the source, leased
// install on the target, drop on the source, table publish — while a
// background client keeps admitting and releasing against the
// non-moving shard. This is the number EXPERIMENTS.md E15 tracks: the
// cost of moving a location with N live commitments without pausing
// the cluster.
func BenchmarkHandoffUnderLoad(b *testing.B) {
	for _, commitments := range []int{10, 100} {
		b.Run(fmt.Sprintf("commitments=%d", commitments), func(b *testing.B) {
			tc := newTestCluster(b, 2, 1, 8, 100000, 1000)
			moving := tc.Members[0].Locations[0]
			steady := tc.Members[1].Locations[0]
			for i := 0; i < commitments; i++ {
				name := fmt.Sprintf("held-%d", i)
				status, v := admitVerdict(b, tc.Members[0].URL, pinnedJob(b, name, moving, 100000))
				if status != http.StatusOK || !v.Admit {
					b.Fatalf("seed %s: status %d, verdict %+v", name, status, v)
				}
			}

			// Live traffic on the shard that is not moving, for the whole
			// timed region. Errors are ignored on purpose: the loop exists
			// to keep the admission path busy, not to assert on it.
			loadBody, err := json.Marshal(pinnedJob(b, "bg-load", steady, 100000))
			if err != nil {
				b.Fatal(err)
			}
			releaseBody, _ := json.Marshal(map[string]string{"name": "bg-load"})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, ep := range []string{"/v1/admit", "/v1/release"} {
						body := loadBody
						if ep == "/v1/release" {
							body = releaseBody
						}
						resp, err := http.Post(tc.Members[1].URL+ep, "application/json", bytes.NewReader(body))
						if err == nil {
							resp.Body.Close()
						}
					}
				}
			}()

			src, dst := 0, 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				epoch := tc.Members[src].Node.Table().Epoch + 1
				err := tc.Members[src].Node.executeHandoff(ctx,
					[]resource.Location{moving}, tc.Members[dst].ID, tc.Members[dst].URL, epoch)
				cancel()
				if err != nil {
					b.Fatalf("handoff %d (%s -> %s): %v", i, tc.Members[src].ID, tc.Members[dst].ID, err)
				}
				next := tc.Members[src].Node.Table().Clone()
				next.Epoch = epoch
				next.Owners[moving] = tc.Members[dst].ID
				for _, nd := range tc.Nodes() {
					nd.applyTable(next)
				}
				src, dst = dst, src
			}
			b.StopTimer()
			close(stop)
			wg.Wait()

			// However many times ownership ping-ponged, every seeded
			// commitment must live on exactly the final owner's ledger.
			for i := 0; i < commitments; i++ {
				if home := Homes(tc.Nodes(), fmt.Sprintf("held-%d", i)); home != 1 {
					b.Fatalf("held-%d lives on %d ledgers after %d handoffs, want 1", i, home, b.N)
				}
			}
			auditAll(b, tc, "after handoffs")
		})
	}
}
