package main

import (
	"bufio"
	"flag"
	"os"
	"strings"
	"testing"
)

// readmeFlagTable parses the "Flag reference: cmd/tdpipe-sim" table out
// of the repo README and returns flag name -> default cell (backticks
// stripped, empty cell = empty default).
func readmeFlagTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatalf("open README: %v", err)
	}
	defer f.Close()

	rows := map[string]string{}
	inSection := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inSection = strings.Contains(line, "Flag reference")
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed flag table row: %q", line)
		}
		clean := func(s string) string {
			return strings.Trim(strings.TrimSpace(s), "`")
		}
		name := strings.TrimPrefix(clean(cells[1]), "-")
		if _, dup := rows[name]; dup {
			t.Errorf("README flag table lists -%s twice", name)
		}
		rows[name] = clean(cells[2])
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read README: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("found no flag table rows in README.md (section 'Flag reference')")
	}
	return rows
}

// TestReadmeFlagTableMatchesRegistration keeps the README flag table
// honest: every registered tdpipe-sim flag must appear in the table
// with the registered default, and every table row must name a real
// flag. Registration is enumerated with flag.VisitAll on a fresh set,
// so the test sees exactly what realMain registers.
func TestReadmeFlagTableMatchesRegistration(t *testing.T) {
	rows := readmeFlagTable(t)

	var o options
	fs := flag.NewFlagSet("tdpipe-sim", flag.ContinueOnError)
	registerFlags(fs, &o)

	seen := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		seen[f.Name] = true
		def, ok := rows[f.Name]
		if !ok {
			t.Errorf("flag -%s is registered but missing from the README flag table", f.Name)
			return
		}
		if def != f.DefValue {
			t.Errorf("flag -%s: README default %q != registered default %q", f.Name, def, f.DefValue)
		}
	})
	for name := range rows {
		if !seen[name] {
			t.Errorf("README flag table row -%s names a flag that is not registered", name)
		}
	}
}

// Fault injection and the policy stack are both layers of the online
// router and compose: a crashy, autoscaled run succeeds and reports
// both the fault and the autoscale sections.
func TestFaultsWithPolicyStackRuns(t *testing.T) {
	var o options
	fs := flag.NewFlagSet("tdpipe-sim", flag.ContinueOnError)
	registerFlags(fs, &o)
	args := []string{
		"-requests", "20", "-pool", "200", "-replicas", "2",
		"-arrivals", "poisson", "-rate", "5",
		"-autoscale-max", "2", "-mtbf", "50", "-fault-horizon", "100",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run(o, fs.Visit)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("faults + autoscaler: %v", err)
	}
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"FleetFaultsElastic(", "\nfaults: ", "\nautoscale: "} {
		if !strings.Contains(string(report), section) {
			t.Errorf("report lacks %q:\n%s", section, report)
		}
	}
}
