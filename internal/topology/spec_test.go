package topology

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	for arg, kind := range map[string]Kind{"": KindMesh, "mesh": KindMesh, "torus": KindTorus} {
		s, err := ParseSpec(arg)
		if err != nil || s.Kind != kind {
			t.Errorf("ParseSpec(%q) = %v, %v", arg, s, err)
		}
	}
	for _, arg := range []string{"hypercube", "@fabric.json", "custom"} {
		_, err := ParseSpec(arg)
		if err == nil || !strings.Contains(err.Error(), "mesh, torus") {
			t.Errorf("ParseSpec(%q) error = %v, want one listing mesh, torus", arg, err)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	for _, k := range []Kind{KindMesh, KindTorus} {
		if err := (Spec{Kind: k}).Validate(); err != nil {
			t.Errorf("%s spec invalid: %v", k, err)
		}
	}
	if err := (Spec{Kind: Kind(42)}).Validate(); err == nil {
		t.Error("unknown kind should be invalid")
	}
}

func TestSpecForDimTorusDegradesBelow3x3(t *testing.T) {
	s := Spec{Kind: KindTorus}
	small, err := s.ForDim(Dim{Rows: 2, Cols: 2}, 4)
	if err != nil || small.Kind != KindMesh {
		t.Fatalf("2x2 torus = %v, %v; want mesh degradation", small, err)
	}
	big, err := s.ForDim(Dim{Rows: 3, Cols: 3}, 4)
	if err != nil || big.Kind != KindTorus {
		t.Fatalf("3x3 torus = %v, %v", big, err)
	}
}

func TestSpecCanonicalID(t *testing.T) {
	for _, k := range []Kind{KindMesh, KindTorus} {
		if id := (Spec{Kind: k}).CanonicalID(); id != k.String() {
			t.Errorf("%s canonical ID = %q", k, id)
		}
	}
}
