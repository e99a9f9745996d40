package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hydra/internal/baseline"
	"hydra/internal/hw"
	"hydra/internal/mapping"
	"hydra/internal/model"
)

// ---------------------------------------------------------------------------
// Table I — application-level parallelism of the four benchmarks.
// ---------------------------------------------------------------------------

// Table1Row is one layer-type row of Table I.
type Table1Row struct {
	Layer  string
	Ranges map[string][2]int // benchmark -> (min, max); zero value = NA
}

// Table1 extracts the parallelism ranges from the network models.
func Table1() []Table1Row {
	kinds := []struct {
		name string
		kind model.Kind
	}{
		{"ConvBN", model.ConvBN},
		{"Pooling", model.Pooling},
		{"FC", model.FC},
		{"PCMM", model.PCMM},
		{"CCMM", model.CCMM},
		{"Non-linear", model.NonLinear},
		{"Bootstrap", model.Bootstrap},
	}
	nets := model.Benchmarks()
	rows := make([]Table1Row, 0, len(kinds)+1)
	for _, k := range kinds {
		row := Table1Row{Layer: k.name, Ranges: map[string][2]int{}}
		for _, n := range nets {
			if min, max, ok := n.ParallelismRange(k.kind); ok {
				row.Ranges[n.Name] = [2]int{min, max}
			}
		}
		rows = append(rows, row)
	}
	ctRow := Table1Row{Layer: "Ciphertext", Ranges: map[string][2]int{}}
	for _, n := range nets {
		min, max := n.CiphertextRange()
		ctRow.Ranges[n.Name] = [2]int{min, max}
	}
	rows = append(rows, ctRow)
	return rows
}

// FormatTable1 renders Table I.
func FormatTable1() string {
	var b strings.Builder
	names := baseline.Benchmarks
	fmt.Fprintf(&b, "Table I: application-level parallelism (Min./Max.)\n")
	fmt.Fprintf(&b, "%-11s", "Layer")
	for _, n := range names {
		fmt.Fprintf(&b, " %22s", n)
	}
	b.WriteByte('\n')
	for _, row := range Table1() {
		fmt.Fprintf(&b, "%-11s", row.Layer)
		for _, n := range names {
			if r, ok := row.Ranges[n]; ok {
				fmt.Fprintf(&b, " %22s", fmt.Sprintf("%d / %d", r[0], r[1]))
			} else {
				fmt.Fprintf(&b, " %22s", "NA")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table II — full-system performance.
// ---------------------------------------------------------------------------

// Table2Cell is one measured entry of Table II.
type Table2Cell struct {
	Seconds float64 // calibrated (reported) seconds
	Raw     float64 // unscaled simulated seconds
	Paper   float64 // the paper's value, 0 if not published
}

// Table2Result holds all measured rows plus the published ASIC rows.
type Table2Result struct {
	Rows  map[string]map[string]Table2Cell // accelerator -> benchmark -> cell
	Order []string
}

// MeasuredPrototypes returns the prototypes Table II measures, in row order.
func MeasuredPrototypes() []Prototype {
	return []Prototype{FABS(), Poseidon(), FABM(), HydraS(), HydraM(), HydraL()}
}

// Table2 runs the full benchmark × prototype matrix.
func Table2() (*Table2Result, error) {
	res := &Table2Result{Rows: map[string]map[string]Table2Cell{}}
	for _, asic := range []string{"CraterLake", "BTS", "ARK", "SHARP"} {
		res.Order = append(res.Order, asic)
		res.Rows[asic] = map[string]Table2Cell{}
		for _, bm := range baseline.Benchmarks {
			res.Rows[asic][bm] = Table2Cell{Seconds: baseline.TableII[asic][bm], Paper: baseline.TableII[asic][bm]}
		}
	}
	for _, p := range MeasuredPrototypes() {
		res.Order = append(res.Order, p.Name)
		res.Rows[p.Name] = map[string]Table2Cell{}
		for _, net := range model.Benchmarks() {
			r, err := p.Run(net)
			if err != nil {
				return nil, fmt.Errorf("experiments: table2 %s/%s: %w", p.Name, net.Name, err)
			}
			res.Rows[p.Name][net.Name] = Table2Cell{
				Seconds: r.Makespan * p.ReportScale,
				Raw:     r.Makespan,
				Paper:   baseline.TableII[p.Name][net.Name],
			}
		}
	}
	return res, nil
}

// Format renders the table with paper values alongside.
func (t *Table2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: full-system execution time in seconds (measured | paper)\n")
	fmt.Fprintf(&b, "%-11s", "")
	for _, bm := range baseline.Benchmarks {
		fmt.Fprintf(&b, " %24s", bm)
	}
	b.WriteByte('\n')
	for _, acc := range t.Order {
		fmt.Fprintf(&b, "%-11s", acc)
		for _, bm := range baseline.Benchmarks {
			c := t.Rows[acc][bm]
			fmt.Fprintf(&b, " %24s", fmt.Sprintf("%10.2f | %10.2f", c.Seconds, c.Paper))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table III — EDAP efficiency.
// ---------------------------------------------------------------------------

// Table3Cell is one EDAP entry.
type Table3Cell struct {
	EDAP  float64
	Paper float64
}

// Table3Result holds EDAP per accelerator per benchmark.
type Table3Result struct {
	Rows  map[string]map[string]Table3Cell
	Order []string
}

// Table3 computes EDAP = Energy × Delay × Area for the Hydra prototypes and
// carries the published ASIC values. Our energy and delay come from the
// simulator; every prototype is built from one card design, so its area is
// its card count. The product is expressed in the paper's (unspecified) unit
// by anchoring Hydra-S/ResNet-18 to its published 0.12, which divides the
// per-card area back out.
func Table3() (*Table3Result, error) {
	res := &Table3Result{Rows: map[string]map[string]Table3Cell{}}
	for _, asic := range []string{"CraterLake", "BTS", "ARK", "SHARP"} {
		res.Order = append(res.Order, asic)
		res.Rows[asic] = map[string]Table3Cell{}
		for _, bm := range baseline.Benchmarks {
			res.Rows[asic][bm] = Table3Cell{EDAP: baseline.TableIII[asic][bm], Paper: baseline.TableIII[asic][bm]}
		}
	}
	protos := []Prototype{HydraS(), HydraM(), HydraL()}
	raw := map[string]map[string]float64{}
	for _, p := range protos {
		raw[p.Name] = map[string]float64{}
		for _, net := range model.Benchmarks() {
			r, err := p.Run(net)
			if err != nil {
				return nil, fmt.Errorf("experiments: table3 %s/%s: %w", p.Name, net.Name, err)
			}
			delay := r.Makespan * p.ReportScale
			// Static energy accrues over the calibrated wall clock.
			energy := r.TotalEnergy() - r.EnergyByUnit["Static"] +
				hw.IdlePowerW*delay*float64(p.Cards)
			raw[p.Name][net.Name] = energy * delay * float64(p.Cards)
		}
	}
	anchor := baseline.TableIII["Hydra-S"]["ResNet-18"] / raw["Hydra-S"]["ResNet-18"]
	for _, p := range protos {
		res.Order = append(res.Order, p.Name)
		res.Rows[p.Name] = map[string]Table3Cell{}
		for _, bm := range baseline.Benchmarks {
			res.Rows[p.Name][bm] = Table3Cell{
				EDAP:  raw[p.Name][bm] * anchor,
				Paper: baseline.TableIII[p.Name][bm],
			}
		}
	}
	return res, nil
}

// Format renders Table III.
func (t *Table3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: EDAP, lower is better (measured | paper)\n")
	fmt.Fprintf(&b, "%-11s", "")
	for _, bm := range baseline.Benchmarks {
		fmt.Fprintf(&b, " %26s", bm)
	}
	b.WriteByte('\n')
	for _, acc := range t.Order {
		fmt.Fprintf(&b, "%-11s", acc)
		for _, bm := range baseline.Benchmarks {
			c := t.Rows[acc][bm]
			fmt.Fprintf(&b, " %26s", fmt.Sprintf("%11.2f | %11.2f", c.EDAP, c.Paper))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table IV — FPGA resource utilization.
// ---------------------------------------------------------------------------

// FormatTable4 renders the single-card resource utilization report.
func FormatTable4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: FPGA resource utilization of Hydra with a single card\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %14s\n", "Resource", "Utilized", "Available", "Utilization(%)")
	for _, r := range hw.HydraResourceUtilization() {
		fmt.Fprintf(&b, "%-10s %10d %10d %14.1f\n", r.Resource, r.Used, r.Available, r.Percent())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table V — optimal DFT parameters.
// ---------------------------------------------------------------------------

// Table5Row is the (Radix, bs) choice for one logSlots on one prototype.
type Table5Row struct {
	LogSlots int
	Choice   map[string]mapping.DFTParams // prototype name -> params
}

// Table5 runs the Eq. 1 optimizer for logSlots 12…15 on the three
// prototypes, using each machine's op times (single-card times for Hydra-S,
// switch-transfer communication cost for Hydra-M/L).
func Table5() ([]Table5Row, error) {
	protos := []struct {
		name  string
		cards int
		proto Prototype
	}{
		{"Hydra-S", 1, HydraS()},
		{"Hydra-M", 8, HydraM()},
		{"Hydra-L", 64, HydraL()},
	}
	var rows []Table5Row
	for logSlots := 12; logSlots <= 15; logSlots++ {
		row := Table5Row{LogSlots: logSlots, Choice: map[string]mapping.DFTParams{}}
		for _, p := range protos {
			params, _, err := mapping.OptimizeDFT(logSlots, p.proto.Sim.Scheme.BootDepth, p.cards, p.proto.OpTimes())
			if err != nil {
				return nil, err
			}
			// Canonical presentation: radices sorted ascending.
			sortDFT(&params)
			row.Choice[p.name] = params
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func sortDFT(p *mapping.DFTParams) {
	idx := make([]int, len(p.Radix))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.Radix[idx[a]] < p.Radix[idx[b]] })
	r := make([]int, len(idx))
	bs := make([]int, len(idx))
	for i, j := range idx {
		r[i], bs[i] = p.Radix[j], p.BS[j]
	}
	p.Radix, p.BS = r, bs
}

// FormatTable5 renders Table V.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: optimal (Radix, bs) per logSlots\n")
	fmt.Fprintf(&b, "%-9s %-26s %-26s %-26s\n", "logSlots", "Hydra-S", "Hydra-M", "Hydra-L")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-9d", row.LogSlots)
		for _, name := range []string{"Hydra-S", "Hydra-M", "Hydra-L"} {
			p := row.Choice[name]
			fmt.Fprintf(&b, " %-26s", fmt.Sprintf("r=%v bs=%v", p.Radix, p.BS))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
