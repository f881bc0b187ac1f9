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
