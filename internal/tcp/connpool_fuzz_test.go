package tcp

import (
	"testing"
	"time"

	"mobbr/internal/units"
)

// FuzzConnPool drives random Get/Put/engine-advance/Reclaim sequences
// against a ConnPool wired to a live path and checks its census against an
// independent model: gets, puts, reuses and the outstanding count track
// exactly, a put pair sits in the dying set until its connection reports
// Quiescent and then moves to the free list, a recycled pair always comes
// back under its new flow id, and the run-end Reclaim leaves the pool
// Balanced with every pair free.
//
// The sender CPU runs at 100 MHz so ACKs queue behind the CPU model and a
// Put often parks its pair in the dying set. Each op byte is kind = b%4,
// arg = b/4:
//
//	0 Get: open a flow streaming (arg%16+1)×8 KB
//	1 Put: release live flow arg%len(live)
//	2 advance the engine by (arg%32+1)×97 µs
//	3 Reclaim: end the run (remaining ops are ignored)
func FuzzConnPool(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3})
	f.Add([]byte{0, 4, 8, 5, 6, 1, 2, 0, 6, 1, 0})
	f.Add([]byte{0, 0, 0, 62, 1, 5, 2, 0, 126, 0, 1, 1, 250, 3})
	f.Add([]byte{16, 2, 1, 0, 0, 13, 9, 2, 0, 1, 1, 2, 3, 0})
	// Both leave pairs dying across several ops.
	f.Add([]byte{5, 86, 48, 74, 62, 62, 174, 20, 194, 141, 12, 234, 57, 210, 144, 26, 82, 114, 13, 168, 92, 161, 228, 179})
	f.Add([]byte{56, 58, 33, 209, 132, 92, 64, 138, 215, 87, 4, 56, 19, 3, 42, 11, 213, 163, 13, 204, 166, 227, 170, 45})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		h := newPoolHarness(t, 1e8)
		var (
			live, dying, free []*PooledConn
			lastID            = map[*PooledConn]int{}
			want              ConnPoolStats
			nextID            int
		)
		indexOf := func(set []*PooledConn, pc *PooledConn) int {
			for i, q := range set {
				if q == pc {
					return i
				}
			}
			return -1
		}
		get := func(size int64) {
			id := nextID
			nextID++
			pc := h.pool.Get(id, streamFactory())
			want.Gets++
			want.Outstanding++
			if want.Outstanding > want.OutstandingHW {
				want.OutstandingHW = want.Outstanding
			}
			if i := indexOf(free, pc); i >= 0 {
				want.Reuses++
				free = append(free[:i], free[i+1:]...)
			} else if _, seen := lastID[pc]; seen {
				t.Fatalf("Get(%d) returned a pair that was not free", id)
			} else {
				want.Created++
			}
			if got := pc.Conn.ID(); got != id {
				t.Fatalf("Get(%d) returned conn id %d (previous id %d)", id, got, lastID[pc])
			}
			lastID[pc] = id
			live = append(live, pc)
			if size > 0 {
				startStream(h, pc, size)
			}
		}
		put := func(i int) {
			pc := live[i]
			live = append(live[:i], live[i+1:]...)
			id := pc.Conn.ID()
			h.demux.Remove(id)
			h.path.RetireFlow(id)
			h.pool.Put(pc)
			want.Puts++
			want.Outstanding--
			dying = append(dying, pc)
		}
		// check moves quiescent dying pairs to the model's free list, then
		// compares the pool's census with the model.
		check := func(when string) {
			t.Helper()
			for i := 0; i < len(dying); {
				if dying[i].Conn.Quiescent() {
					free = append(free, dying[i])
					dying = append(dying[:i], dying[i+1:]...)
					continue
				}
				i++
			}
			want.Free, want.Dying = len(free), len(dying)
			if got := h.pool.Stats(); got != want {
				t.Fatalf("%s: census %+v, model %+v", when, got, want)
			}
		}

	run:
		for _, b := range ops {
			arg := int(b / 4)
			switch b % 4 {
			case 0:
				get(int64(arg%16+1) * int64(8*units.KB))
			case 1:
				if len(live) > 0 {
					put(arg % len(live))
				}
			case 2:
				h.eng.Run(h.eng.Now() + time.Duration(arg%32+1)*97*time.Microsecond)
			case 3:
				break run
			}
			check("after op")
		}

		// Run end: release every live flow, then reclaim the network and
		// the pool with the engine stopped.
		for len(live) > 0 {
			put(len(live) - 1)
		}
		check("after final puts")
		h.path.Reclaim()
		h.pool.Reclaim()
		free = append(free, dying...)
		dying = nil
		check("after Reclaim")
		st := h.pool.Stats()
		if !st.Balanced() || st.Free != st.Created {
			t.Fatalf("after Reclaim: census %+v, want balanced with all %d pairs free", st, st.Created)
		}
		if ps := h.segs.Stats(); ps.OutstandingPackets != 0 || ps.OutstandingAcks != 0 {
			t.Fatalf("after Reclaim: segment pool holds %d packets / %d ACKs", ps.OutstandingPackets, ps.OutstandingAcks)
		}
		// A reclaimed pair is reusable at once, under a fresh id (get
		// checks the id).
		if st.Free > 0 {
			get(0)
			put(0)
			check("after reuse")
			if st := h.pool.Stats(); !st.Balanced() {
				t.Fatalf("after reuse: census %+v not balanced", st)
			}
		}
	})
}

// startStream registers pc's receiver and starts a stream of size bytes,
// closing it once everything has been written.
func startStream(h *poolHarness, pc *PooledConn, size int64) {
	c := pc.Conn
	c.SetStream()
	var written int64
	pump := func() {
		for written < size {
			n, err := c.StreamWrite(size - written)
			if err != nil || n == 0 {
				return
			}
			written += n
		}
		c.CloseStream()
	}
	c.SetStreamCallbacks(pump, func() {}, func(error) {})
	h.demux.Add(pc.Rx)
	c.Start()
	pump()
}
