package topology

import (
	"fmt"
	"strings"
)

// Spec names an interconnect family without fixing an instance: the mapper's
// outer loop supplies concrete dimensions per growth attempt (ForDim). It is
// the value that threads topology choice through core.Params into every
// search engine, the CLIs and the mapping service.
type Spec struct {
	Kind Kind
}

// MeshSpec is the default spec: the paper's 2-D mesh family.
func MeshSpec() Spec { return Spec{Kind: KindMesh} }

// KindNames lists the values accepted by ParseKind, in display order.
func KindNames() []string { return []string{"mesh", "torus"} }

// ParseKind resolves a topology-family name; the empty string means mesh.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", "mesh":
		return KindMesh, nil
	case "torus":
		return KindTorus, nil
	default:
		return KindMesh, fmt.Errorf("topology: unknown kind %q (have %s)", name, strings.Join(KindNames(), ", "))
	}
}

// ParseSpec resolves a CLI topology argument: "mesh", "torus", or the empty
// string (mesh).
func ParseSpec(arg string) (Spec, error) {
	kind, err := ParseKind(arg)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Kind: kind}, nil
}

// Validate rejects a spec of an unknown kind.
func (s Spec) Validate() error {
	if s.Kind != KindMesh && s.Kind != KindTorus {
		return fmt.Errorf("topology: unknown kind %v", s.Kind)
	}
	return nil
}

// ForDim instantiates the family at the given dimensions with the given
// per-switch core capacity. Tori below 3x3 degrade to meshes — their wrap
// links would duplicate mesh links — so the torus growth sequence starts
// from the same small shapes as the mesh one.
func (s Spec) ForDim(d Dim, coresPerSwitch int) (*Topology, error) {
	if s.Kind == KindTorus && d.Rows >= 3 && d.Cols >= 3 {
		return NewTorus(d.Rows, d.Cols, coresPerSwitch)
	}
	return NewMesh(d.Rows, d.Cols, coresPerSwitch)
}

// CanonicalID returns the digest-stable fabric identifier, "mesh" or
// "torus". It is what design digests and service cache keys embed so
// otherwise identical requests on different fabrics never collide.
func (s Spec) CanonicalID() string { return s.Kind.String() }
