package trace

import (
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
)

// The reference oracle: the materialising memory-trace path that
// CoalesceWG and the streaming ClassifyGrouped replaced. Each work-group
// is copied column-major into one access slice, coalesced into a burst
// slice, and only then classified. Buffers are looked up by name in
// Layout.Base through the kernel's parameter list, as before traces
// carried parameter ordinals. The tests require the production path to
// reproduce these results exactly.

// oracleCoalesce merges consecutive same-direction accesses to adjacent
// addresses of one access stream into bursts of unitBytes.
func oracleCoalesce(accs []interp.Access, params []*ir.Param, l Layout, unitBytes int) []Burst {
	if unitBytes <= 0 {
		unitBytes = 64
	}
	var bursts []Burst
	i := 0
	for i < len(accs) {
		a := accs[i]
		base, ok := l.Base[params[a.Param].PName]
		if !ok {
			i++
			continue
		}
		addr := base + a.Index*int64(a.Bytes)
		end := addr + int64(a.Bytes)
		j := i + 1
		for j < len(accs) {
			b := accs[j]
			if b.Write != a.Write || b.Param != a.Param {
				break
			}
			nb := l.Base[params[b.Param].PName] + b.Index*int64(b.Bytes)
			if nb != end {
				break
			}
			end = nb + int64(b.Bytes)
			j++
		}
		first := addr / int64(unitBytes) * int64(unitBytes)
		for p := first; p < end; p += int64(unitBytes) {
			bursts = append(bursts, Burst{Addr: p, Write: a.Write})
		}
		i = j
	}
	return bursts
}

// oracleInterleaveWG copies one work-group's traces into pipeline issue
// order: the k-th access of every work-item before anyone's (k+1)-th.
func oracleInterleaveWG(traces [][]interp.Access) []interp.Access {
	maxLen := 0
	for _, tr := range traces {
		if len(tr) > maxLen {
			maxLen = len(tr)
		}
	}
	out := make([]interp.Access, 0, maxLen*len(traces))
	for k := 0; k < maxLen; k++ {
		for _, tr := range traces {
			if k < len(tr) {
				out = append(out, tr[k])
			}
		}
	}
	return out
}

// oracleWGBursts returns the coalesced burst stream of every work-group
// of wgSize.
func oracleWGBursts(traces [][]interp.Access, params []*ir.Param, wgSize int64, l Layout, unitBytes int) [][]Burst {
	if wgSize <= 0 {
		wgSize = 1
	}
	var out [][]Burst
	for lo := int64(0); lo < int64(len(traces)); lo += wgSize {
		hi := lo + wgSize
		if hi > int64(len(traces)) {
			hi = int64(len(traces))
		}
		stream := oracleInterleaveWG(traces[lo:hi])
		out = append(out, oracleCoalesce(stream, params, l, unitBytes))
	}
	return out
}

// oracleClassifyGrouped classifies every work-group's materialised burst
// stream, with the first quarter of the groups as warm-up.
func oracleClassifyGrouped(traces [][]interp.Access, params []*ir.Param, wgSize int64, l Layout, p device.DRAMParams, unitBytes int) *Classified {
	c := &Classified{WorkItems: len(traces)}
	if len(traces) == 0 {
		return c
	}
	sim := dram.NewSim(p)
	type bankState struct {
		hasOpen   bool
		openRow   int64
		prevWrite bool
	}
	banks := make([]bankState, sim.P.Banks)

	groups := oracleWGBursts(traces, params, wgSize, l, unitBytes)
	warmup := 0
	if len(groups) > 1 {
		warmup = len(groups) / 4
		if warmup < 1 {
			warmup = 1
		}
	}
	counted := 0
	for gi, bursts := range groups {
		count := gi >= warmup
		if count {
			lo := int64(gi) * wgSize
			hi := lo + wgSize
			if hi > int64(len(traces)) {
				hi = int64(len(traces))
			}
			counted += int(hi - lo)
			for wi := lo; wi < hi; wi++ {
				c.RawPerWI += float64(len(traces[wi]))
			}
			c.BurstsPerWI += float64(len(bursts))
		}
		for _, b := range bursts {
			bi := sim.BankOf(b.Addr)
			row := sim.RowOf(b.Addr)
			st := &banks[bi]
			hit := st.hasOpen && st.openRow == row
			pat := patternOf(b.Write, st.prevWrite, hit)
			if count {
				c.N[pat]++
				if b.Write {
					c.Writes++
				} else {
					c.Reads++
				}
			}
			st.hasOpen = true
			st.openRow = row
			st.prevWrite = b.Write
		}
	}
	if counted == 0 {
		return c
	}
	n := float64(counted)
	for i := range c.N {
		c.N[i] /= n
	}
	c.BurstsPerWI /= n
	c.RawPerWI /= n
	c.Reads /= n
	c.Writes /= n
	return c
}

// OracleWGBursts exposes the oracle to the external test package, which
// compares it with rtlsim.
var OracleWGBursts = oracleWGBursts
