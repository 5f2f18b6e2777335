package ownership

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/crypt"
)

// BenchmarkCommitSharedKey runs steps (1)–(3) over a 200k-row release
// for the owner alone and for the owner plus four claims at other η
// under the owner's secret. Every such claim holds the owner's
// encryption key.
func BenchmarkCommitSharedKey(b *testing.B) {
	f := newDisputeFixture(b, 200_000)
	claims := []Claim{f.owner}
	for _, eta := range []uint64{3, 5, 13, 21} {
		c := f.owner
		c.Claimant = fmt.Sprintf("owner-eta-%d", eta)
		c.Key = crypt.NewWatermarkKeyFromSecret("the-hospital", eta)
		claims = append(claims, c)
	}
	for _, n := range []int{1, 5} {
		b.Run(fmt.Sprintf("claims=%d", n), func(b *testing.B) {
			for b.Loop() {
				vs, err := f.judge.Commit(context.Background(), f.disputed, claims[:n])
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range vs {
					if !v.MarkDerived {
						b.Fatalf("%s: %s", v.Claimant, v.Reason)
					}
				}
			}
		})
	}
}
