//go:build seedsweep

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestSeedSweep prints two digests of each golden serializer's output
// for seeds 1-40: one over the raw output and one over its lines
// sorted. The goldens pin seed 42 only, and the model's output depends
// on the order of same-instant events, so a change can hold seed 42 and
// still move other seeds. scripts/seedsweep.sh runs this test on two
// revisions and compares the digests run by run: equal raw digests mean
// identical output, equal sorted digests the same lines in another
// order, and anything else changed values.
//
// It is behind the seedsweep build tag because it takes about ten
// seconds and pins nothing by itself.
func TestSeedSweep(t *testing.T) {
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:8])
	}
	for seed := uint64(1); seed <= 40; seed++ {
		retrain, _, _ := serializeRetrainDeferralRun(t, seed)
		for _, run := range []struct{ name, out string }{
			{"plain", serializeRun(t, seed)},
			{"faulted", serializeFaultedRun(t, seed)},
			{"retrain", retrain},
		} {
			lines := strings.Split(run.out, "\n")
			slices.Sort(lines)
			fmt.Printf("sweep %s %d %s %s\n", run.name, seed, digest(run.out), digest(strings.Join(lines, "\n")))
		}
	}
}
