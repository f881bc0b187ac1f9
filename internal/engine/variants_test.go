package engine

import (
	"testing"
)

// TestPresetPassLists pins the exact pass sequence of every named
// preset. The widened twins must stay in lockstep with their base
// scripts — resyn5 and resyn-x are resyn with the trailing/greedy
// passes swapped, never an independently drifting script.
func TestPresetPassLists(t *testing.T) {
	want := map[string][]string{
		"resyn":   {"TF", "depthopt", "BF", "TFD"},
		"resyn5":  {"TF", "depthopt", "BF", "TFD", "TF5"},
		"resyn-x": {"TFx", "depthopt", "BF", "TFD", "TF5x"},
		"size":    {"BF"},
		"size5":   {"BF", "TF5"},
		"depth":   {"depthopt", "TD"},
		"depth-x": {"depthopt", "Txd", "TD"},
		"quick":   {"TF"},
	}
	for name, passes := range want {
		p, err := Preset(name)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
			continue
		}
		var got []string
		for _, pass := range p.Passes {
			got = append(got, pass.Name())
		}
		if len(got) != len(passes) {
			t.Errorf("%s runs %v, want %v", name, got, passes)
			continue
		}
		for i := range got {
			if got[i] != passes[i] {
				t.Errorf("%s runs %v, want %v", name, got, passes)
				break
			}
		}
	}
}

// TestWidenScript pins the single preset-widening table shared by the
// CLIs and the HTTP service: cut width 5 and the extraction toggle both
// resolve through it, for presets and bare pass names alike.
func TestWidenScript(t *testing.T) {
	for _, tc := range []struct {
		script  string
		k       int
		extract bool
		want    string // "" = expect an error
	}{
		{"resyn", 0, false, "resyn"},
		{"resyn", 4, false, "resyn"},
		{"resyn", 5, false, "resyn5"},
		{"resyn", 0, true, "resyn-x"},
		{"resyn", 5, true, "resyn-x"}, // the extract twin already ends in TF5x
		{"resyn5", 5, false, "resyn5"},
		{"resyn-x", 0, true, "resyn-x"},
		{"size", 5, false, "size5"},
		{"size", 0, true, ""}, // no choice-aware twin
		{"depth", 0, true, "depth-x"},
		{"depth", 5, false, ""}, // no 5-input twin
		{"quick", 5, false, ""},
		{"TF", 5, false, "TF5"},
		{"TF", 0, true, "TFx"},
		{"TF", 5, true, "TF5x"},
		{"TF5", 0, true, "TF5x"},
		{"Txd", 0, true, "Txd"},
		{"TD", 0, true, ""}, // no depth-preserving extraction variant
		{"resyn", 6, false, ""},
		// A widened preset keeps its base: the choice-aware twin wins
		// over K = 5 however the request reaches it.
		{"resyn5", 0, true, "resyn-x"},
		{"resyn-x", 5, false, "resyn-x"},
		{"resyn-x", 5, true, "resyn-x"},
		{"BF", 0, true, ""}, // the bottom-up pass takes no suffix
		{"BF", 5, false, ""},
		{"Txd", 5, false, ""},
		{"depthopt", 0, false, "depthopt"},
		{"depthopt", 5, false, ""},
		{"nope", 0, false, ""},
	} {
		got, err := WidenScript(tc.script, tc.k, tc.extract)
		if tc.want == "" {
			if err == nil {
				t.Errorf("WidenScript(%q, %d, %v) = %q, want error", tc.script, tc.k, tc.extract, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("WidenScript(%q, %d, %v): %v", tc.script, tc.k, tc.extract, err)
			continue
		}
		if got != tc.want {
			t.Errorf("WidenScript(%q, %d, %v) = %q, want %q", tc.script, tc.k, tc.extract, got, tc.want)
		}
	}
}

// TestPresetVariantsResolve pins the twins WidenScript derives for the
// composite presets by the naming rule base → base5 / base-x: every
// derived twin is a real preset, and no other twin exists.
func TestPresetVariantsResolve(t *testing.T) {
	want := map[string][2]string{ // preset → {K = 5 twin, choice-aware twin}
		"resyn":   {"resyn5", "resyn-x"},
		"resyn5":  {"resyn5", "resyn-x"},
		"resyn-x": {"resyn-x", "resyn-x"},
		"size":    {"size5", ""},
		"size5":   {"size5", ""},
		"depth":   {"", "depth-x"},
		"depth-x": {"depth-x", "depth-x"},
		"quick":   {"", ""},
	}
	for _, name := range PresetNames() {
		if _, isPass := PassByName(name); isPass {
			continue
		}
		tw, ok := want[name]
		if !ok {
			t.Errorf("preset %q missing from the twin table", name)
			continue
		}
		five, _ := WidenScript(name, 5, false)
		x, _ := WidenScript(name, 0, true)
		if five != tw[0] || x != tw[1] {
			t.Errorf("%s widens to (%q, %q), want (%q, %q)", name, five, x, tw[0], tw[1])
		}
		for _, twin := range []string{five, x} {
			if _, err := Preset(twin); twin != "" && err != nil {
				t.Errorf("%s widens to %q: %v", name, twin, err)
			}
		}
	}
}
