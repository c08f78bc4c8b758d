package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullReport renders all four scenarios at the default seeds, with the
// population rows scaled down to keep the test quick (200 tenants per
// row is still enough for every row's story assertion to hold).
func fullReport(t *testing.T) []byte {
	t.Helper()
	out, err := render(params{
		scenario: "all", seed: 4, windows: 4, xtSeed: 1, xtWindows: 60,
		pool: 8, popTenants: 200, popSeed: 1, popWindows: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReportDeterministic is the command's contract: two renders
// produce bit-identical bytes — the property the CI multicore leg
// asserts by diffing full invocations across reruns and -procs values.
func TestReportDeterministic(t *testing.T) {
	a := fullReport(t)
	b := fullReport(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ across reruns:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestReportLayout pins the table layout downstream tooling parses,
// and the outcomes the scenarios gate on: solo/quiet vs duo, dilution,
// and the cross-tenant breach.
func TestReportLayout(t *testing.T) {
	out := string(fullReport(t))
	for _, want := range []string{
		"# pthammer-mt preset=SandyBridge(escalation scale) scenario=all\n",
		"# table 1: mt-colocated-amplify",
		"arm\tcores\tpeak_pressure\tflips\titerations",
		"\nsolo\t1\t", "\nduo\t2\t",
		"# table 2: mt-noisy-neighbour",
		"arm\tpeak_pressure\tflips\tattacker_iters\tbystander_loads",
		"\nquiet\t", "\nnoisy\t",
		"# table 3: mt-cross-tenant-escalation",
		"attacker_rows\tvictim_row\twindows\titerations\tflips\tdiverged_va\thijacked_frame\tbreached",
		"\ttrue\n",
		"# table 4: mt-population",
		"layout\tclass\ttenants\tbreached_per_M\tdiluted_per_M\ttable_flips_per_M\tmean_peak_pressure\tmax_peak_pressure\tmean_iters",
		"\ninterleaved\tA\t", "\ninterleaved\tB\t", "\ninterleaved\tC\t",
		"\nblocked\tA\t", "\nblocked\tB\t", "\nblocked\tC\t",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Nothing scheduling-dependent may leak into the bytes.
	if strings.Contains(out, "procs") {
		t.Errorf("report mentions procs; its bytes must be -procs-independent:\n%s", out)
	}
}

// TestRunSingleScenario: -scenario selects exactly one table.
func TestRunSingleScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "amplify"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "# table 1: mt-colocated-amplify") {
		t.Errorf("amplify table missing:\n%s", out)
	}
	for _, absent := range []string{"# table 2", "# table 3", "# table 4"} {
		if strings.Contains(out, absent) {
			t.Errorf("unexpected %s in -scenario amplify output:\n%s", absent, out)
		}
	}
}

// TestRunPopulationScenario: -scenario population emits only table 4,
// and its bytes are independent of the pool's front-end count.
func TestRunPopulationScenario(t *testing.T) {
	render := func(pool string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-scenario", "population", "-pop-tenants", "120", "-pool", pool}
		if code := run(args, &stdout, &stderr); code != exitOK {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		return stdout.String()
	}
	out := render("8")
	if !strings.Contains(out, "# table 4: mt-population") {
		t.Errorf("population table missing:\n%s", out)
	}
	for _, absent := range []string{"# table 1", "# table 2", "# table 3"} {
		if strings.Contains(out, absent) {
			t.Errorf("unexpected %s in -scenario population output:\n%s", absent, out)
		}
	}
	if narrow := render("4"); narrow != out {
		t.Errorf("population bytes depend on the pool size:\n--- pool 8 ---\n%s--- pool 4 ---\n%s", out, narrow)
	}
}

// TestRunWritesFile: -o writes the report to the given path.
func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.tsv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "noisy", "-o", path}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# table 2: mt-noisy-neighbour") {
		t.Errorf("file missing the noisy table:\n%s", data)
	}
}

// TestRunUsageErrors: bad flags exit 2 without running anything.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-windows", "0"},
		{"-xt-windows", "-1"},
		{"-pop-windows", "0"},
		{"-pool", "1"},
		{"-pop-tenants", "0"},
		{"-procs", "-2"},
		{"stray"},
		{"-not-a-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("args %q: exit %d, want %d (stderr: %s)", args, code, exitUsage, stderr.String())
		}
	}
}

// TestRunCPUProfile: -cpuprofile writes a pprof profile (gzip-framed
// protobuf) next to an unchanged report, and an unwritable profile
// path is a write failure that runs nothing.
func TestRunCPUProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "noisy", "-cpuprofile", path}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("profile is not gzip-framed: % x", data[:min(len(data), 8)])
	}
	var plain bytes.Buffer
	if code := run([]string{"-scenario", "noisy"}, &plain, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if plain.String() != stdout.String() {
		t.Errorf("profiling changed the report:\n--- profiled ---\n%s--- plain ---\n%s", stdout.String(), plain.String())
	}

	stdout.Reset()
	bad := filepath.Join(dir, "missing", "cpu.pprof")
	if code := run([]string{"-scenario", "noisy", "-cpuprofile", bad}, &stdout, &stderr); code != exitWrite {
		t.Errorf("unwritable profile path: exit %d, want %d", code, exitWrite)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed profile start still ran the scenario:\n%s", stdout.String())
	}
}
