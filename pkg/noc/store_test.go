package noc_test

import (
	"testing"

	"nocmap/pkg/noc"
)

// TestOpenStoreValidation pins OpenStore's configuration errors.
func TestOpenStoreValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  noc.StoreConfig
	}{
		{"unknown backend", noc.StoreConfig{Backend: "redis"}},
		{"removed sharded backend", noc.StoreConfig{Backend: "sharded"}},
		{"disk without dir", noc.StoreConfig{Backend: "disk"}},
		{"memory with dir", noc.StoreConfig{Backend: "memory", Dir: t.TempDir()}},
	}
	for _, c := range cases {
		if _, err := noc.OpenStore(c.cfg); err == nil {
			t.Errorf("%s: OpenStore accepted %+v", c.name, c.cfg)
		}
	}
	st, err := noc.OpenStore(noc.StoreConfig{})
	if err != nil {
		t.Fatalf("zero-value StoreConfig: %v", err)
	}
	if st.Backend() != "memory" {
		t.Errorf("default backend = %q, want memory", st.Backend())
	}
	st.Close()

	disk, err := noc.OpenStore(noc.StoreConfig{Backend: "disk", Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("disk backend: %v", err)
	}
	if disk.Backend() != "disk" {
		t.Errorf("disk backend = %q, want disk", disk.Backend())
	}
	disk.Close()
}
