// Build determinism: a program is a value. Building one twice, in one
// process, in sequence or on concurrent goroutines, gives identical
// bytes — configuration slot addresses included, since every program
// numbers its own slots. make soak runs this under the race detector.
package core_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/progen"
	"softbrain/internal/wire"
	"softbrain/internal/workloads/catalog"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// builder builds one named set of programs from scratch.
type builder struct {
	name  string
	build func() ([]*core.Program, error)
}

// shippedBuilders lists every catalog workload at scales 1 and 2, every
// example program, and 20 generated programs.
func shippedBuilders() []builder {
	var names []string
	for _, e := range machsuite.All() {
		names = append(names, e.Name)
	}
	for _, e := range ext.All() {
		names = append(names, e.Name)
	}
	for _, l := range dnn.Layers() {
		names = append(names, l.Name)
	}
	var bs []builder
	for _, name := range names {
		for scale := 1; scale <= 2; scale++ {
			name, scale := name, scale
			bs = append(bs, builder{fmt.Sprintf("%s@%d", name, scale), func() ([]*core.Program, error) {
				inst, _, err := catalog.Build(name, scale)
				if err != nil {
					return nil, err
				}
				return inst.Progs, nil
			}})
		}
	}
	bs = append(bs, builder{"examples", func() ([]*core.Program, error) {
		exs, err := programs.All()
		if err != nil {
			return nil, err
		}
		pl, err := programs.Pipeline()
		if err != nil {
			return nil, err
		}
		var ps []*core.Program
		for _, ex := range exs {
			ps = append(ps, ex.Prog)
		}
		for _, ph := range pl.Phases {
			ps = append(ps, ph...)
		}
		return ps, nil
	}})
	cfg := core.DefaultConfig()
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		bs = append(bs, builder{fmt.Sprintf("progen/%d", seed), func() ([]*core.Program, error) {
			p, ports, err := progen.Addpair(cfg)
			if err != nil {
				return nil, err
			}
			for _, c := range progen.Commands(rand.New(rand.NewSource(seed)), ports) {
				p.Emit(c)
			}
			return []*core.Program{p}, p.Err()
		}})
	}
	return bs
}

// encode builds b and returns the wire JSON of each of its programs.
func encode(b builder) ([][]byte, error) {
	progs, err := b.build()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(progs))
	for i, p := range progs {
		wp, err := wire.FromProgram(p)
		if err != nil {
			return nil, err
		}
		if out[i], err = json.Marshal(wp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestBuildDeterminism builds every shipped program twice in sequence
// and once more on concurrent goroutines; all three builds must encode
// to identical wire bytes.
func TestBuildDeterminism(t *testing.T) {
	bs := shippedBuilders()
	first := make([][][]byte, len(bs))
	for i, b := range bs {
		enc, err := encode(b)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		first[i] = enc
	}
	check := func(how string, i int, got [][]byte) {
		if len(got) != len(first[i]) {
			t.Errorf("%s: %s build has %d programs, first build %d", bs[i].name, how, len(got), len(first[i]))
			return
		}
		for u := range got {
			if string(got[u]) != string(first[i][u]) {
				t.Errorf("%s: program %d encodes differently in the %s build", bs[i].name, u, how)
			}
		}
	}
	for i, b := range bs {
		enc, err := encode(b)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		check("second sequential", i, enc)
	}

	concurrent := make([][][]byte, len(bs))
	errs := make([]error, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b builder) {
			defer wg.Done()
			concurrent[i], errs[i] = encode(b)
		}(i, b)
	}
	wg.Wait()
	for i := range bs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", bs[i].name, errs[i])
		}
		check("concurrent", i, concurrent[i])
	}
}
