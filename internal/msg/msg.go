// Package msg is the message-passing substrate of the reproduction: a
// PVM-like library built on goroutines and channels. It provides eager
// (buffered) sends, tag-matched receives, and the per-rank startup and
// byte accounting the paper reports in Table 1.
//
// The accounting follows the paper's convention: every send and every
// receive initiation is a "startup"; communicated volume is counted on
// the send side.
package msg

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Tag distinguishes message streams between the same pair of ranks. The
// exchange schedule is deterministic, so tags are verified in FIFO
// order; a mismatch indicates a protocol bug and panics.
type Tag int

// message is one in-flight payload.
type message struct {
	tag  Tag
	data []float64
}

// pairCap is the per-directed-pair channel buffer; the solver keeps at
// most a few messages in flight between neighbours.
const pairCap = 16

// freeCap bounds the world's payload free list. In-flight payloads are
// limited by the pair buffers, so a modest cap keeps steady-state sends
// allocation-free without holding memory proportional to world size
// squared.
const freeCap = 1024

// World connects Size ranks with in-process channels.
type World struct {
	size  int
	pipes [][]chan message // pipes[from][to]
	comms []*Comm
	free  chan []float64 // recycled message payloads
}

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic(fmt.Sprintf("msg: invalid world size %d", n))
	}
	w := &World{size: n, pipes: make([][]chan message, n), free: make(chan []float64, freeCap)}
	for i := range w.pipes {
		w.pipes[i] = make([]chan message, n)
		for j := range w.pipes[i] {
			if i != j {
				w.pipes[i][j] = make(chan message, pairCap)
			}
		}
	}
	w.comms = make([]*Comm, n)
	for r := range w.comms {
		w.comms[r] = &Comm{world: w, rank: r}
	}
	return w
}

// getBuf takes a recycled payload of length n from the free list, or
// allocates one. An undersized recycled slice is dropped rather than
// grown: message sizes per world take only a few distinct values, so
// the list converges to the largest within a step or two.
func (w *World) getBuf(n int) []float64 {
	select {
	case b := <-w.free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]float64, n)
}

// putBuf returns a delivered payload to the free list (dropped if the
// list is full).
func (w *World) putBuf(b []float64) {
	select {
	case w.free <- b:
	default:
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns rank r's endpoint. The endpoint is a singleton per rank
// (like a PVM task): repeated calls return the same *Comm, so counters
// accumulate in one place.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("msg: rank %d out of range [0,%d)", r, w.size))
	}
	return w.comms[r]
}

// Comm is one rank's endpoint. It is not safe for concurrent use by
// multiple goroutines (like a PVM task, each rank is a single process).
type Comm struct {
	world *World
	rank  int

	// Counters accumulates this rank's communication workload.
	Counters trace.Counters
	// WaitTime accumulates wall-clock time blocked in Recv, the
	// "non-overlapped communication time" of the paper's Figures 5-6.
	WaitTime time.Duration
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send transmits data to rank `to` with an eager (buffered) semantic:
// it blocks only if the pair buffer is full. The payload is copied into
// a recycled buffer, so the caller may reuse data immediately (as PVM's
// pack/send does) and steady-state sends allocate nothing.
func (c *Comm) Send(to int, tag Tag, data []float64) {
	if to == c.rank {
		panic("msg: send to self")
	}
	cp := c.world.getBuf(len(data))
	copy(cp, data)
	c.Counters.AddMessage(8 * len(data))
	c.world.pipes[c.rank][to] <- message{tag: tag, data: cp}
}

// Recv blocks until the next message from rank `from` arrives, verifies
// its tag, and copies the payload into buf (lengths must match). The
// receive initiation counts as a startup; bytes are counted at the
// sender.
func (c *Comm) Recv(from int, tag Tag, buf []float64) {
	if from == c.rank {
		panic("msg: recv from self")
	}
	c.Counters.Startups++
	start := time.Now()
	m := <-c.world.pipes[from][c.rank]
	c.WaitTime += time.Since(start)
	if m.tag != tag {
		panic(fmt.Sprintf("msg: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag))
	}
	if len(m.data) != len(buf) {
		panic(fmt.Sprintf("msg: rank %d tag %d from %d: length %d != buffer %d", c.rank, tag, from, len(m.data), len(buf)))
	}
	copy(buf, m.data)
	c.world.putBuf(m.data)
}
