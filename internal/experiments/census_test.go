package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hydra/internal/baseline"
	"hydra/internal/hw"
	"hydra/internal/model"
	"hydra/internal/sim"
)

// census names where each settable value of the machine model comes from: a
// section, table or figure of the paper, "fit to" the result it was fitted
// on, or "assumed" when it is neither. A field's row covers its value on
// every profile. EXPERIMENTS.md prints the same table.
var census = []struct{ name, source string }{
	{"hw.CardProfile.Lanes", "§IV-A: 512 lanes per compute unit; FAB's 256 assumed"},
	{"hw.CardProfile.NTTPassEff", "§IV-B: radix-4 (Hydra) beats radix-8 (Poseidon) at N = 2^16; values assumed"},
	{"hw.CardProfile.ScratchpadHitRate", "§IV-B: MAD-style reuse (Hydra), none (Poseidon); FAB's 0.45 assumed"},
	{"hw.CardProfile.HBMBandwidth", "U280 HBM2, 460 GB/s; Poseidon's 420 assumed"},
	{"hw.CardProfile.KeySwitchDnum", "§V-A: dnum = 3; FAB's 5 assumed"},
	{"hw.ClockHz", "§V-A: 300 MHz, all three designs on the U280"},
	{"hw.EnergyHBM", "assumed; read by Fig. 7 and Table III"},
	{"hw.EnergyNIC", "assumed; read by Fig. 7 and Table III"},
	{"hw.IdlePowerW", "assumed; read by Fig. 7 and Table III"},
	{"hw.EnergyNTT", "assumed; read by Fig. 7 and Table III"},
	{"hw.EnergyMA", "assumed; read by Fig. 7 and Table III"},
	{"hw.EnergyMM", "assumed; read by Fig. 7 and Table III"},
	{"hw.EnergyAuto", "assumed; read by Fig. 7 and Table III"},
	{"hw.NetworkProfile.IntraServer", "§IV-C, Fig. 4: 100 Gb/s QSFP into the in-server switch"},
	{"hw.NetworkProfile.InterServer", "Fig. 4: cross-server switch; 5 GB/s per flow assumed for the shared uplinks"},
	{"hw.NetworkProfile.HostRelay", "§II-B1: FAB's host-mediated path"},
	{"hw.NetworkProfile.PCIe", "§II-B1: U280 PCIe, 16 GB/s"},
	{"hw.NetworkProfile.LAN", "§II-B1: 10 Gb/s LAN between hosts"},
	{"hw.NetworkProfile.HostSyncLatency", "§II-B1: a host round trip per dependency; 20 µs assumed"},
	{"hw.SchemeParams.LogN", "§V-A: N = 2^16"},
	{"hw.SchemeParams.MaxLimbs", "§V-A: logQ = 1260, 28 limbs"},
	{"hw.SchemeParams.SpecialLimbs", "§V-A: log(PQ) = 1692, a 432-bit P"},
	{"hw.SchemeParams.BootDepth", "§V-G, Table V: three DFT levels"},
	{"hw.SchemeParams.FreshLimbs", "assumed: limbs a bootstrap leaves"},
	{"hw.SchemeParams.EffectiveLimb", "assumed: mean limbs of a steady-state op"},
	{"sim.Config.Scheme", "§V-A: the rows of hw.SchemeParams"},
	{"sim.Config.Card", "§V-A: one hw.CardProfile per design"},
	{"sim.Config.Network", "§IV-C (Hydra), §II-B1 (FAB)"},
	{"sim.Config.CollectTrace", "no value: records the schedule for hydrasim -trace-json"},
	{"experiments.hydraReportScale", "fit to Table II, Hydra-S on ResNet-18: 41.29/203.92"},
	{"experiments.fabReportScale", "fit to Table II, FAB-S on ResNet-18: 131.94/584.35"},
	{"experiments.poseidonReportScale", "fit to Table II, Poseidon on ResNet-18: 55.05/243.96"},
	{"model.pcmmEnergyScale", "assumed: PCMM/CCMM operand residency, 0.7 of their dynamic energy"},
	{"serve.batchAmortFrac", "fit to a deleted host layer's 1.50x batch-8 speedup; derived key-traffic share 0.017-0.020"},
}

// censusTypes are the machine descriptions whose every field needs a row.
var censusTypes = []reflect.Type{
	reflect.TypeFor[hw.CardProfile](),
	reflect.TypeFor[hw.NetworkProfile](),
	reflect.TypeFor[hw.SchemeParams](),
	reflect.TypeFor[sim.Config](),
}

// censusPackages are the directories, by package name, of the constants a
// row may name.
var censusPackages = map[string]string{"hw": "../hw", "model": "../model", "serve": "../serve", "experiments": "."}

// TestMachineModelCensus fails when a field of the machine model has no
// census row, when a row names a field or constant that does not exist, when
// a card profile field holds one value on all three cards (it belongs in an
// hw constant), or when EXPERIMENTS.md does not print a row.
func TestMachineModelCensus(t *testing.T) {
	rows := map[string]bool{}
	for _, r := range census {
		if r.source == "" || rows[r.name] {
			t.Errorf("census row %q: empty source or named twice", r.name)
		}
		rows[r.name] = true
	}
	fields := map[string]bool{}
	for _, typ := range censusTypes {
		for i := range typ.NumField() {
			name := typ.String() + "." + typ.Field(i).Name
			fields[name] = true
			if !rows[name] {
				t.Errorf("%s has no census row", name)
			}
		}
	}
	consts := map[string]bool{}
	for pkg, dir := range censusPackages {
		for name := range constsIn(t, dir) {
			consts[pkg+"."+name] = true
		}
	}
	for _, r := range census {
		if !fields[r.name] && !consts[r.name] {
			t.Errorf("census row %q names no field or constant", r.name)
		}
	}

	cards := []reflect.Value{reflect.ValueOf(hw.HydraCard()), reflect.ValueOf(hw.FABCard()), reflect.ValueOf(hw.PoseidonCard())}
	for i := range cards[0].NumField() {
		v := cards[0].Field(i).Interface()
		if reflect.DeepEqual(v, cards[1].Field(i).Interface()) && reflect.DeepEqual(v, cards[2].Field(i).Interface()) {
			t.Errorf("hw.CardProfile.%s is %v on all three cards: make it an hw constant", cards[0].Type().Field(i).Name, v)
		}
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range census {
		if line := "| `" + r.name + "` | " + r.source + " |"; !strings.Contains(string(doc), line) {
			t.Errorf("EXPERIMENTS.md does not print the census row %q", line)
		}
	}
}

// constsIn returns the package-level constants declared in dir's non-test
// files.
func constsIn(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
				for _, s := range g.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

// censusRates are the fields that hold a rate in [0, 1): scaling one moves it
// a quarter of its distance to 1, as a 25 % step past 1 would be no rate.
var censusRates = map[string]bool{"NTTPassEff": true, "ScratchpadHitRate": true}

// scaleBy25 scales every number in v by 25 %, integers rounded to the nearest,
// rates a quarter of the way to 1, and reports whether v holds a number.
func scaleBy25(v reflect.Value, field string) bool {
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(int64(math.Round(float64(v.Int()) * 1.25)))
	case reflect.Float64:
		if x := v.Float(); censusRates[field] {
			v.SetFloat(x + (1-x)/4)
		} else {
			v.SetFloat(x * 1.25)
		}
	case reflect.Struct:
		number := false
		for i := range v.NumField() {
			number = scaleBy25(v.Field(i), v.Type().Field(i).Name) || number
		}
		return number
	default:
		return false
	}
	return true
}

// censusField returns the field a census row names in p's machine, or false
// when the row names a constant.
func censusField(p *Prototype, row string) (reflect.Value, bool) {
	dot := strings.LastIndexByte(row, '.')
	typ, field := row[:dot], row[dot+1:]
	cfg := reflect.ValueOf(&p.Sim).Elem()
	if cfg.Type().String() == typ {
		return cfg.FieldByName(field), true
	}
	for i := range cfg.NumField() {
		if f := cfg.Field(i); f.Type().String() == typ {
			return f.FieldByName(field), true
		}
	}
	return reflect.Value{}, false
}

// table2Error runs Table II's benchmarks on protos and returns the mean
// |error| against the paper, in percent, over the single-card and over the
// multi-card prototypes.
func table2Error(protos []Prototype) (single, multi float64, err error) {
	var sum, n [2]float64
	for _, p := range protos {
		for _, net := range model.Benchmarks() {
			r, err := p.Run(net)
			if err != nil {
				return 0, 0, err
			}
			k := min(p.Cards-1, 1)
			sum[k] += 100 * math.Abs(r.Makespan*p.ReportScale/baseline.TableII[p.Name][net.Name]-1)
			n[k]++
		}
	}
	return sum[0] / n[0], sum[1] / n[1], nil
}

// TestCensusSensitivity scales each field row's value by 25 % on every
// measured prototype, re-runs Table II and requires EXPERIMENTS.md to print
// the change in its single- and multi-card mean |error|, in percentage
// points: "—" for a row that holds no number, "rejected" for a value the
// machine refuses. Rows naming a constant were measured once by editing the
// constant; the test requires only that they print a figure marked "†".
func TestCensusSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("one Table II pass per census row in short mode")
	}
	baseSingle, baseMulti, err := table2Error(MeasuredPrototypes())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range census {
		protos := MeasuredPrototypes()
		number, field := false, false
		for i := range protos {
			if v, ok := censusField(&protos[i], r.name); ok {
				field = true
				number = scaleBy25(v, r.name[strings.LastIndexByte(r.name, '.')+1:]) || number
			}
		}
		prefix := "| `" + r.name + "` | " + r.source + " | "
		if !field {
			i := strings.Index(string(doc), prefix)
			if line, _, _ := strings.Cut(string(doc)[max(i, 0):], "\n"); i < 0 || !strings.Contains(line, " † |") {
				t.Errorf("EXPERIMENTS.md prints no measured figure for the constant %s", r.name)
			}
			continue
		}
		want := prefix + "— | — |"
		if number {
			want = prefix + "rejected | rejected |"
			if single, multi, err := table2Error(protos); err == nil {
				want = prefix + fmt.Sprintf("%+.2f | %+.2f |", single-baseSingle, multi-baseMulti)
			}
		}
		if !strings.Contains(string(doc), want) {
			t.Errorf("EXPERIMENTS.md does not print the sensitivity row %q", want)
		}
	}
	t.Logf("Table II mean |error|: single-card %.2f %%, multi-card %.2f %%", baseSingle, baseMulti)
}
