package workload

import (
	"strings"
	"testing"
)

func instanceNames(apps []*App) []string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Instance
	}
	return names
}

func TestParseSpec(t *testing.T) {
	tests := []struct {
		name string
		spec string
		want []string // instance names, in order
	}{
		{"single", "CG", []string{"CG#1"}},
		{"multiplicity", "CG x2", []string{"CG#1", "CG#2"}},
		{"mix", "CG x2, BBMA x4", []string{"CG#1", "CG#2", "BBMA#1", "BBMA#2", "BBMA#3", "BBMA#4"}},
		{"repeat counts across items", "CG, CG x2", []string{"CG#1", "CG#2", "CG#3"}},
		{"interleaved profiles keep order", "CG, nBBMA, CG", []string{"CG#1", "nBBMA#1", "CG#2"}},
		{"whitespace", "  Raytrace x2 ,  nBBMA x4  ", []string{"Raytrace#1", "Raytrace#2", "nBBMA#1", "nBBMA#2", "nBBMA#3", "nBBMA#4"}},
		{"empty items skipped", "CG,,BBMA,", []string{"CG#1", "BBMA#1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			apps, err := ParseSpec(tt.spec)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", tt.spec, err)
			}
			got := instanceNames(apps)
			if strings.Join(got, ",") != strings.Join(tt.want, ",") {
				t.Errorf("ParseSpec(%q) = %v, want %v", tt.spec, got, tt.want)
			}
			for _, a := range apps {
				if len(a.Threads) != a.Profile.Threads {
					t.Errorf("%s: %d threads, profile wants %d", a.Instance, len(a.Threads), a.Profile.Threads)
				}
			}
		})
	}
}

func TestParseSpecErrors(t *testing.T) {
	tests := []struct {
		name    string
		spec    string
		wantSub string // substring expected in the error
	}{
		{"unknown app", "NoSuchApp x2", "unknown application"},
		{"unknown app alone", "Quux", "unknown application"},
		{"zero count", "CG x0", "bad multiplicity"},
		{"negative count", "CG x-1", "bad multiplicity"},
		{"non-numeric count", "CG xtwo", "bad multiplicity"},
		{"empty spec", "", "empty workload"},
		{"only separators", " , , ", "empty workload"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			apps, err := ParseSpec(tt.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) = %v, want error", tt.spec, instanceNames(apps))
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("ParseSpec(%q) error = %q, want substring %q", tt.spec, err, tt.wantSub)
			}
		})
	}
}

func TestCanonicalSpec(t *testing.T) {
	tests := []struct {
		spec, want string
	}{
		{"CG x2, BBMA x4", "CG x2, BBMA x4"},
		{"CG, CG, BBMA x4", "CG x2, BBMA x4"},
		{"CG,CG,BBMA,BBMA,BBMA,BBMA", "CG x2, BBMA x4"},
		{"CG, nBBMA, CG", "CG, nBBMA, CG"},
		{"Raytrace", "Raytrace"},
	}
	for _, tt := range tests {
		mix, err := ParseMix(tt.spec)
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", tt.spec, err)
		}
		if got := mix.String(); got != tt.want {
			t.Errorf("ParseMix(%q).String() = %q, want %q", tt.spec, got, tt.want)
		}
	}
	// Canonicalization is a fixed point: re-parsing the canonical spec
	// reproduces the same instances and the same canonical form.
	mix, err := ParseMix("CG, CG, BBMA x2, BBMA x2")
	if err != nil {
		t.Fatal(err)
	}
	canon := mix.String()
	re, err := ParseMix(canon)
	if err != nil {
		t.Fatalf("ParseMix(%q): %v", canon, err)
	}
	if re.String() != canon {
		t.Errorf("canonical spec not a fixed point: %q -> %q", canon, re.String())
	}
	if strings.Join(instanceNames(re.Build()), ",") != strings.Join(instanceNames(mix.Build()), ",") {
		t.Errorf("re-parsed instances differ: %v vs %v", instanceNames(re.Build()), instanceNames(mix.Build()))
	}
}
