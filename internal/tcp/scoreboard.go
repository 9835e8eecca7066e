package tcp

import (
	"time"

	"mobbr/internal/units"
)

// pktInfo is the sender's per-segment scoreboard entry, the analogue of
// struct tcp_skb_cb for one MSS-sized segment.
type pktInfo struct {
	seq int64
	len units.DataSize

	sentAt  time.Duration
	retx    bool // has been retransmitted at least once
	inFlite bool // currently counted in flight
	sacked  bool
	lost    bool // marked lost, awaiting retransmission
	acked   bool // cumulatively acked or delivered

	// Rate-sample snapshots taken at (re)transmission, per tcp_rate.c.
	snapDelivered     int64
	snapDeliveredTime time.Duration
	snapFirstTx       time.Duration
	snapAppLimited    bool

	// free links the entry on its connection's pktInfo freelist once the
	// cumulative ACK retires it (tcp_clean_rtx_queue frees the skb there).
	free *pktInfo
}

func (p *pktInfo) end() int64 { return p.seq + int64(p.len) }

// scoreboard tracks sent-but-unacked segments in sequence order. Entries
// are appended as new data is sent and dropped from the front as the
// cumulative ACK advances; retransmissions update entries in place.
//
// Result-slice lifetime: popAcked, markSacked, detectLosses, markAllLost and
// undoLost all return views of one shared scratch buffer, so each result is
// valid only until the next call to any of them — callers must consume it
// immediately (the ACK path does: each result is fully processed before the
// next scoreboard call). lostPendingInto appends into a caller-owned buffer
// instead, because the transmit path retains its result across a CPU-model
// completion.
type scoreboard struct {
	entries []*pktInfo
	head    int // index of first live entry
	scratch []*pktInfo
}

// add appends a newly sent segment (must be in sequence order).
func (s *scoreboard) add(p *pktInfo) {
	if n := s.liveLen(); n > 0 {
		if last := s.at(n - 1); p.seq < last.end() {
			panic("tcp: scoreboard add out of order")
		}
	}
	if len(s.entries) == cap(s.entries) && s.head >= s.liveLen() {
		// Reuse the retired prefix before append doubles the array. At
		// least half the array is retired, so the copy is amortized O(1)
		// per add even when the live count sits just under capacity.
		s.compact()
	}
	s.entries = append(s.entries, p)
}

// compact slides the live entries to the front of the backing array.
func (s *scoreboard) compact() {
	n := copy(s.entries, s.entries[s.head:])
	clear(s.entries[n:])
	s.entries = s.entries[:n]
	s.head = 0
}

// liveLen returns the number of live entries.
func (s *scoreboard) liveLen() int { return len(s.entries) - s.head }

// at returns the i-th live entry.
func (s *scoreboard) at(i int) *pktInfo { return s.entries[s.head+i] }

// popAcked removes entries fully covered by cumAck from the front and
// returns them. Compaction keeps memory bounded on long runs.
func (s *scoreboard) popAcked(cumAck int64) []*pktInfo {
	out := s.scratch[:0]
	for s.head < len(s.entries) && s.entries[s.head].end() <= cumAck {
		out = append(out, s.entries[s.head])
		s.entries[s.head] = nil
		s.head++
	}
	if s.head > 1024 && s.head*2 > len(s.entries) {
		s.compact()
	}
	s.scratch = out
	return out
}

// markSacked marks entries inside [start,end) as SACKed and returns the
// newly sacked ones.
func (s *scoreboard) markSacked(start, end int64) []*pktInfo {
	out := s.scratch[:0]
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.seq >= end {
			break
		}
		if p.end() <= start || p.sacked || p.acked {
			continue
		}
		if p.seq >= start && p.end() <= end {
			p.sacked = true
			out = append(out, p)
		}
	}
	s.scratch = out
	return out
}

// detectLosses applies the dupack/SACK-count rule: a segment is lost if at
// least dupThresh segments above it have been SACKed (FACK-style counting).
// A RACK-style time gate keeps stale evidence from re-condemning fresh
// retransmissions: the segment must also have been sent at least reoWnd
// before the newest SACKed segment. It returns the newly lost entries.
func (s *scoreboard) detectLosses(dupThresh int, reoWnd time.Duration) []*pktInfo {
	n := s.liveLen()
	if n == 0 {
		return nil
	}
	// Newest (by send time) SACKed entry bounds how fresh the loss
	// evidence is.
	var newestSack time.Duration = -1
	for i := 0; i < n; i++ {
		if p := s.at(i); p.sacked && p.sentAt > newestSack {
			newestSack = p.sentAt
		}
	}
	if newestSack < 0 {
		return nil
	}
	// Count sacked entries from the top down; when the running count
	// reaches dupThresh every unsacked entry below sent reoWnd before
	// the newest evidence is deemed lost.
	out := s.scratch[:0]
	sackedAbove := 0
	for i := n - 1; i >= 0; i-- {
		p := s.at(i)
		if p.sacked {
			sackedAbove++
			continue
		}
		if p.acked || p.lost {
			continue
		}
		if sackedAbove >= dupThresh && p.sentAt+reoWnd < newestSack {
			p.lost = true
			out = append(out, p)
		}
	}
	// Reverse so callers retransmit lowest sequence first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	s.scratch = out
	return out
}

// markAllLost marks every unsacked in-flight entry lost (tcp_enter_loss on
// RTO) and returns them in sequence order.
func (s *scoreboard) markAllLost() []*pktInfo {
	out := s.scratch[:0]
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.acked || p.sacked || p.lost {
			continue
		}
		p.lost = true
		out = append(out, p)
	}
	s.scratch = out
	return out
}

// undoLost clears the lost mark from entries that were condemned but never
// retransmitted (F-RTO spurious-timeout undo: the originals are still in
// flight) and returns them in sequence order.
func (s *scoreboard) undoLost() []*pktInfo {
	out := s.scratch[:0]
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.lost && !p.retx && !p.inFlite && !p.acked && !p.sacked {
			p.lost = false
			p.inFlite = true
			out = append(out, p)
		}
	}
	s.scratch = out
	return out
}

// audit walks the live entries and classifies each into exactly one state,
// for the invariant checker: in flight, lost awaiting retransmission,
// SACKed awaiting cumulative ACK, or acked-but-not-yet-popped. It also sums
// the live byte span.
func (s *scoreboard) audit() (inflight, lostPending, sacked, acked int, liveBytes int64) {
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		liveBytes += int64(p.len)
		switch {
		case p.acked:
			acked++
		case p.sacked:
			sacked++
		case p.inFlite:
			inflight++
		case p.lost:
			lostPending++
		default:
			// Neither acked, sacked, in flight nor lost: impossible by
			// construction; counted as lost so the checker flags it.
			lostPending++
		}
	}
	return
}

// firstLost returns the lowest-sequence entry marked lost and not in
// flight, or nil.
func (s *scoreboard) firstLost() *pktInfo {
	for i := 0; i < s.liveLen(); i++ {
		p := s.at(i)
		if p.lost && !p.inFlite && !p.acked && !p.sacked {
			return p
		}
	}
	return nil
}

// lostPendingInto appends up to max lost entries awaiting retransmission to
// dst, in sequence order. The transmit path passes its own reusable buffer
// because the result lives until the CPU model finishes the transmit job.
func (s *scoreboard) lostPendingInto(dst []*pktInfo, max int) []*pktInfo {
	for i := 0; i < s.liveLen() && len(dst) < max; i++ {
		p := s.at(i)
		if p.lost && !p.inFlite && !p.acked && !p.sacked {
			dst = append(dst, p)
		}
	}
	return dst
}

// lostPending returns up to max lost entries in a fresh slice.
func (s *scoreboard) lostPending(max int) []*pktInfo {
	return s.lostPendingInto(nil, max)
}
