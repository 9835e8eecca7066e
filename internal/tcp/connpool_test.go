package tcp

import (
	"testing"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cpumodel"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/units"
)

// poolHarness wires a ConnPool to a demux'd path the way the flows session
// does, with the aggregate sink and flow table attached. The sender CPU
// runs at hz cycles per second.
type poolHarness struct {
	eng   *sim.Engine
	pool  *ConnPool
	demux *Demux
	path  *netem.Path
	agg   *AggStats
	segs  *seg.Pool
}

func newPoolHarness(t *testing.T, hz float64) *poolHarness {
	t.Helper()
	eng := sim.New(1)
	cpu := cpumodel.NewCPU(eng, cpumodel.DefaultCosts(), hz)
	path, err := netem.EthernetLAN(eng, netem.TC{})
	if err != nil {
		t.Fatalf("EthernetLAN: %v", err)
	}
	segs := seg.NewPool()
	path.SetPool(segs)
	demux := NewDemux()
	demux.SetPool(segs)
	path.SetReceiver(demux.Handle)
	agg := &AggStats{}
	ftab := cpumodel.NewFlowTable(16, 1, cpumodel.DefaultCosts())
	pool := NewConnPool(eng, cpu, nil, path, Config{}, segs, agg, ftab)
	return &poolHarness{eng: eng, pool: pool, demux: demux, path: path, agg: agg, segs: segs}
}

func streamFactory() cc.Factory {
	return func() cc.CongestionControl { return &stubCC{cwnd: 32} }
}

// runFlow opens flow id on the pool, streams size bytes to completion and
// releases the pair, mirroring the flows session's per-flow lifecycle.
func (h *poolHarness) runFlow(t *testing.T, id int, size int64) {
	t.Helper()
	pc := h.pool.Get(id, streamFactory())
	c := pc.Conn
	c.SetStream()
	done := false
	var written int64
	var pump func()
	pump = func() {
		for written < size {
			n, err := c.StreamWrite(size - written)
			if err != nil || n == 0 {
				return
			}
			written += n
		}
		c.CloseStream()
	}
	c.SetStreamCallbacks(pump, func() { done = true }, func(error) { t.Fatalf("flow %d failed", id) })
	h.demux.Add(pc.Rx)
	c.Start()
	pump()
	h.eng.Run(h.eng.Now() + 5*time.Second)
	if !done {
		t.Fatalf("flow %d did not drain", id)
	}
	h.demux.Remove(id)
	h.path.RetireFlow(id)
	h.pool.Put(pc)
}

func TestConnPoolReuse(t *testing.T) {
	h := newPoolHarness(t, 5e9)
	const flows = 5
	for i := 0; i < flows; i++ {
		h.runFlow(t, i, int64(64*units.KB))
		// Let the dying conn quiesce (its held ACKs drain through the CPU)
		// before the next Get so reuse actually happens.
		h.eng.Run(h.eng.Now() + time.Second)
	}
	st := h.pool.Stats()
	if st.Gets != flows || st.Puts != flows {
		t.Fatalf("gets/puts = %d/%d, want %d/%d", st.Gets, st.Puts, flows, flows)
	}
	if st.Created != 1 || st.Reuses != flows-1 {
		t.Fatalf("created=%d reuses=%d, want one construction and %d reuses", st.Created, st.Reuses, flows-1)
	}
	if !st.Balanced() || st.Free != 1 {
		t.Fatalf("end census %+v, want balanced with one free pair", st)
	}
	if hw := st.OutstandingHW; hw != 1 {
		t.Fatalf("outstanding high-water %d, want 1 (flows were sequential)", hw)
	}
	if want := units.DataSize(flows) * 64 * units.KB; h.agg.GoodBytes() != want {
		t.Fatalf("aggregate goodput %d, want %d", h.agg.GoodBytes(), want)
	}
	if ps := h.segs.Stats(); ps.OutstandingPackets != 0 || ps.OutstandingAcks != 0 {
		t.Fatalf("segment pool leaks %d packets / %d acks", ps.OutstandingPackets, ps.OutstandingAcks)
	}
}

func TestConnPoolReclaimDrainsDying(t *testing.T) {
	h := newPoolHarness(t, 5e9)
	// Open several flows, push bytes, and cut them off mid-transfer — the
	// run-horizon path. Put parks them dying; Reclaim must free them all.
	var pcs []*PooledConn
	for i := 0; i < 4; i++ {
		pc := h.pool.Get(i, streamFactory())
		pc.Conn.SetStream()
		pc.Conn.SetStreamCallbacks(func() {}, func() {}, func(error) {})
		h.demux.Add(pc.Rx)
		pc.Conn.Start()
		pc.Conn.StreamWrite(int64(1 * units.MB))
		pcs = append(pcs, pc)
	}
	h.eng.Run(50 * time.Millisecond)
	for i, pc := range pcs {
		h.demux.Remove(i)
		h.path.RetireFlow(i)
		h.pool.Put(pc)
	}
	h.path.Reclaim()
	h.pool.Reclaim()
	st := h.pool.Stats()
	if !st.Balanced() || st.Free != 4 {
		t.Fatalf("post-Reclaim census %+v, want balanced with 4 free", st)
	}
	if ps := h.segs.Stats(); ps.OutstandingPackets != 0 || ps.OutstandingAcks != 0 {
		t.Fatalf("segment pool leaks %d packets / %d acks after Reclaim", ps.OutstandingPackets, ps.OutstandingAcks)
	}
}

func TestConnPoolDoublePutPanics(t *testing.T) {
	h := newPoolHarness(t, 5e9)
	pc := h.pool.Get(0, streamFactory())
	pc.Conn.SetStream()
	pc.Conn.SetStreamCallbacks(func() {}, func() {}, func(error) {})
	pc.Conn.Start()
	h.pool.Put(pc)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put did not panic")
		}
	}()
	h.pool.Put(pc)
}

func TestConnPoolIdsNeverReused(t *testing.T) {
	h := newPoolHarness(t, 5e9)
	pc := h.pool.Get(100, streamFactory())
	if pc.Conn.ID() != 100 {
		t.Fatalf("fresh conn id %d, want 100", pc.Conn.ID())
	}
	pc.Conn.SetStream()
	pc.Conn.SetStreamCallbacks(func() {}, func() {}, func(error) {})
	pc.Conn.Start()
	h.pool.Put(pc)
	h.pool.Reclaim()
	pc2 := h.pool.Get(101, streamFactory())
	if pc2 != pc {
		t.Fatal("expected the recycled pair back")
	}
	if pc2.Conn.ID() != 101 {
		t.Fatalf("recycled conn id %d, want fresh id 101", pc2.Conn.ID())
	}
}
