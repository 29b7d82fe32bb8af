package main

import (
	"reflect"
	"testing"

	"repro/internal/serve"
)

func TestJobStreamIsSeeded(t *testing.T) {
	a, b := jobStream(7, 40), jobStream(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two job streams")
	}
	if reflect.DeepEqual(a, jobStream(8, 40)) {
		t.Fatal("two seeds gave one job stream")
	}
}

// TestJobStreamHitShare replays the stream's cache keys: a distinct job
// must bring a new key, a repeat must carry its original's key, and the
// hit share must land in its band over every whole-block prefix.
func TestJobStreamHitShare(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		stream := jobStream(seed, 120)
		seen := map[string]bool{}
		keys := make([]string, len(stream))
		hits := 0
		for i, sj := range stream {
			k, err := serve.Key(sj.job.Config())
			if err != nil {
				t.Fatalf("seed %d job %d: %v", seed, i, err)
			}
			keys[i] = k
			switch {
			case sj.dupOf < 0 && seen[k]:
				t.Fatalf("seed %d job %d: a distinct job repeats an earlier key", seed, i)
			case sj.dupOf >= 0 && (sj.dupOf >= i || keys[sj.dupOf] != k):
				t.Fatalf("seed %d job %d: a repeat does not follow its original's key", seed, i)
			case sj.dupOf >= 0:
				hits++
			}
			seen[k] = true
			if (i+1)%blockLen == 0 {
				if share := float64(hits) / float64(i+1); share < 0.3 || share > 0.45 {
					t.Fatalf("seed %d: hit share %.3f after %d jobs, want 0.30-0.45", seed, share, i+1)
				}
			}
		}
	}
}
