package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("beta-long-name", "22")
	tbl.AddRow("short") // padded
	out := tbl.String()

	if !strings.HasPrefix(out, "demo\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	// All body rows align to the same width.
	if len(lines[3]) < len("beta-long-name") {
		t.Error("column not widened to longest cell")
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header wrong: %q", lines[1])
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Error("cells missing")
	}
}

func TestUntitledTable(t *testing.T) {
	tbl := NewTable("", "x")
	tbl.AddRow("1")
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Error("untitled table starts with a blank line")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Errorf("Bar(5,10,10) = %q", got)
	}
	if got := Bar(20, 10, 10); got != "##########" {
		t.Errorf("overflow bar = %q", got)
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 10, 10) != "" || Bar(1, 10, 0) != "" {
		t.Error("degenerate bars not empty")
	}
	if Bar(0, 10, 10) != "" {
		t.Error("zero bar not empty")
	}
}

func TestFormatters(t *testing.T) {
	if got := FormatUS(12345); got != "12.3" {
		t.Errorf("FormatUS = %q", got)
	}
	if got := FormatCount(999); got != "999" {
		t.Errorf("FormatCount(999) = %q", got)
	}
	if got := FormatCount(53_200); got != "53.2K" {
		t.Errorf("FormatCount(53200) = %q", got)
	}
	if got := FormatCount(1_200_000); got != "1.20M" {
		t.Errorf("FormatCount(1.2M) = %q", got)
	}
}
