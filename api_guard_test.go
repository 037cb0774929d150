package qurator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepReason says why an exported function or method with no program
// caller stays in the API.
type keepReason string

const (
	// seam: it injects a clock, a sleep, a transport or a fault.
	keepSeam keepReason = "seam"
	// harness: it is the client half of a guarantee that a test in
	// another package checks.
	keepHarness keepReason = "harness"
	// paper: it is part of the IQ model and its RDF form, or of the §3
	// classification.
	keepPaper keepReason = "paper"
	// roadmap: an open ROADMAP item builds on it.
	keepRoadmap keepReason = "roadmap"
	// observe: a read-only accessor that tests use to check a guarantee.
	keepObserve keepReason = "observe"
	// enum: a member of an exported set whose other members have callers.
	keepEnum keepReason = "enum"
	// facade: the root package's only entry to a feature README documents.
	keepFacade keepReason = "facade"
)

// apiKeep lists the exported functions and methods that no non-test code
// calls but that stay, each with its reason. Keys are the package path
// relative to the module root ("qurator" for the root package), then the
// receiver type for methods, then the name.
var apiKeep = map[string]keepReason{
	// Clock, sleep, transport, fault and policy injection.
	"internal/annotstore.SetClock":                  keepSeam,
	"internal/resilience.Policy.WithSleep":          keepSeam,
	"internal/resilience.Policy.WithClock":          keepSeam,
	"internal/resilience/chaos.New":                 keepSeam,
	"internal/resilience/chaos.Transport.SetDown":   keepSeam,
	"internal/resilience/chaos.Transport.Partition": keepSeam,
	"internal/resilience/chaos.Transport.Heal":      keepSeam,
	"internal/resilience/chaos.Transport.Stats":     keepSeam,
	// Switches one compiled view's fault policy, as the mixed-mode
	// merged≡independent test does.
	"internal/compiler.Compiled.SetDegradedMode": keepSeam,

	// The SIGKILL exactly-once e2e test drives the fleet through it.
	"internal/cluster.StreamClient.Enact": keepHarness,

	// The IQ model, its RDF form and the §3 classification.
	"internal/ontology.Ontology.Classes":             keepPaper,
	"internal/ontology.Ontology.Superclasses":        keepPaper,
	"internal/ontology.Ontology.Subclasses":          keepPaper,
	"internal/ontology.Ontology.TypesOf":             keepPaper,
	"internal/ontology.Ontology.InstancesOf":         keepPaper,
	"internal/ontology.Ontology.Label":               keepPaper,
	"internal/ontology.Ontology.CheckStatement":      keepPaper,
	"internal/ontology.Ontology.ToGraph":             keepPaper,
	"internal/ontology.FromGraph":                    keepPaper,
	"internal/library.Library.ToGraph":               keepPaper,
	"internal/library.FromGraph":                     keepPaper,
	"internal/library.Library.FindByDimension":       keepPaper,
	"internal/binding.Registry.ToGraph":              keepPaper,
	"internal/binding.FromGraph":                     keepPaper,
	"internal/compiler.ParseDeployment":              keepPaper,
	"internal/compiler.DeploymentDescriptor.Marshal": keepPaper,
	"internal/compiler.Compiled.SetBranchCondition":  keepPaper,
	"qurator.Framework.ClassifyAssertion":            keepPaper,
	"qurator.Framework.DimensionsOf":                 keepPaper,
	"qurator.Framework.AssertionsAddressing":         keepPaper,

	// Tombstones and annotation retention (ROADMAP item 7).
	"internal/mstore.Store.Remove":                keepRoadmap,
	"internal/annotstore.Repository.RecordedAt":   keepRoadmap,
	"internal/annotstore.Repository.ExpireBefore": keepRoadmap,

	// Read-only accessors that tests check guarantees through.
	"qurator.Framework.CacheStats":                 keepObserve,
	"qurator.Framework.Cube":                       keepObserve,
	"qurator.Framework.TransportFor":               keepObserve,
	"internal/annotstore.Repository.Source":        keepObserve,
	"internal/annotstore.Repository.TypesOf":       keepObserve,
	"internal/annotstore.Repository.Graph":         keepObserve,
	"internal/binding.Registry.Concepts":           keepObserve,
	"internal/cluster.Node.Ring":                   keepObserve,
	"internal/cluster.Ring.Len":                    keepObserve,
	"internal/evidence.Map.Has":                    keepObserve,
	"internal/goa.DB.Term":                         keepObserve,
	"internal/goa.DB.TermCount":                    keepObserve,
	"internal/mstore.Store.Snapshot":               keepObserve,
	"internal/mstore.Store.Len":                    keepObserve,
	"internal/mstore.Store.Stats":                  keepObserve,
	"internal/provenance.Log.Durable":              keepObserve,
	"internal/provenance.Log.Superseded":           keepObserve,
	"internal/provenance.Log.LastRun":              keepObserve,
	"internal/qa.StatClassifier.Thresholds":        keepObserve,
	"internal/qcache.Cache.Len":                    keepObserve,
	"internal/qcube.Cube.Len":                      keepObserve,
	"internal/rdf.Snapshot.Has":                    keepObserve,
	"internal/rdf.Snapshot.Triples":                keepObserve,
	"internal/rdf.Snapshot.Taken":                  keepObserve,
	"internal/rdf.Snapshot.FirstObject":            keepObserve,
	"internal/resilience.Breaker.Stats":            keepObserve,
	"internal/resilience.Budget.Spent":             keepObserve,
	"internal/resilience.Transport.BreakerFor":     keepObserve,
	"internal/resilience.Transport.Budget":         keepObserve,
	"internal/services.RemoteRepository.LastError": keepObserve,
	"internal/stream.DriftRegistry.Detector":       keepObserve,
	"internal/telemetry.Exposition.Family":         keepObserve,
	"internal/telemetry.Recorder.Len":              keepObserve,
	"internal/workflow.Workflow.ProcessorTimeout":  keepObserve,
	"internal/workflow.Event.Duration":             keepObserve,

	// Histogram completes Counter, Gauge and their Vec forms, all used.
	"internal/telemetry.Registry.Histogram": keepEnum,

	// The root package's entries to merged enactment and to SPARQL over
	// the metadata targets.
	"qurator.Framework.CompileViewSet": keepFacade,
	"qurator.Framework.RunQuery":       keepFacade,
}

// apiGuardIfaces are the standard-library interfaces whose methods are
// called through the interface, so a concrete implementation has no
// direct caller. errors.Is and errors.As also call Unwrap() error
// through an unnamed interface, which the test adds itself.
var apiGuardIfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"net/http", "RoundTripper"},
	{"net/http", "Handler"},
	{"io", "Closer"},
}

// TestExportedAPIHasProgramCallers type-checks both modules and fails on
// every exported function or method that no non-test file uses, unless
// it satisfies an interface or apiKeep names it. Files under cmd/,
// examples/ and perfbench/ count as program code. It also fails on an
// apiKeep entry that is gone or has gained a program caller.
func TestExportedAPIHasProgramCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	pkgs := goList(t, ".", "./...")
	pkgs = append(pkgs, goList(t, "perfbench", "./...")...)
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}

	s := &apiScan{
		fset:   token.NewFileSet(),
		byPath: map[string]*listedPackage{},
		typed:  map[string]*types.Package{},
		uses:   map[types.Object]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	for _, p := range pkgs {
		s.byPath[p.ImportPath] = p
	}
	for _, p := range pkgs {
		if _, err := s.Import(p.ImportPath); err != nil {
			t.Fatal(err)
		}
	}

	var ifaces []*types.Interface
	for _, p := range pkgs {
		scope := s.typed[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && tn.Type().(*types.Named).TypeParams() == nil {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, si := range apiGuardIfaces {
		var scope *types.Scope
		if si.pkg == "" {
			scope = types.Universe
		} else {
			p, err := s.std.Import(si.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		ifaces = append(ifaces, scope.Lookup(si.name).Type().Underlying().(*types.Interface))
	}
	unwrap := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)
	ifaces = append(ifaces, types.NewInterfaceType(
		[]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())

	seen := map[string]bool{}
	var failures []string
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.ImportPath, "qurator/")
		for _, fn := range exportedFuncs(s.typed[p.ImportPath]) {
			key := rel + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				named := namedOf(recv.Type())
				if named == nil || !named.Obj().Exported() || satisfiesInterface(named, fn.Name(), ifaces) {
					continue
				}
				key = rel + "." + named.Obj().Name() + "." + fn.Name()
			}
			seen[key] = true
			reason, kept := apiKeep[key]
			used := s.uses[fn]
			pos := s.fset.Position(fn.Pos())
			if file, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = file
			}
			switch {
			case !used && !kept:
				failures = append(failures, fmt.Sprintf("%s: %s has no program caller: delete it or add it to apiKeep with a reason", pos, key))
			case used && kept:
				failures = append(failures, fmt.Sprintf("%s: %s now has a program caller: remove it from apiKeep (%s)", pos, key, reason))
			}
		}
	}
	for key := range apiKeep {
		if !seen[key] {
			failures = append(failures, fmt.Sprintf("apiKeep entry %s names no exported function or method", key))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

type listedPackage struct {
	Dir, ImportPath string
	GoFiles         []string
}

func goList(t *testing.T, dir, pattern string) []*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs
}

// apiScan type-checks the non-test files of the listed packages,
// importing the standard library from source, and records every object
// a non-test file uses outside that object's own declaration.
type apiScan struct {
	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*listedPackage
	typed  map[string]*types.Package
	uses   map[types.Object]bool
}

func (s *apiScan) Import(path string) (*types.Package, error) {
	if p, ok := s.typed[path]; ok {
		return p, nil
	}
	lp, ok := s.byPath[path]
	if !ok {
		return s.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.typed[path] = pkg

	// A function's mention of itself is not a caller.
	type span struct{ from, to token.Pos }
	own := map[types.Object]span{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				obj := pkg.Scope().Lookup(fd.Name.Name)
				if fd.Recv != nil {
					obj = funcOf(info, fd)
				}
				own[obj] = span{fd.Pos(), fd.End()}
			}
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if sp, ok := own[obj]; ok && id.Pos() >= sp.from && id.Pos() < sp.to {
			continue
		}
		s.uses[obj] = true
	}
	return pkg, nil
}

// funcOf finds the method object a declaration with a receiver defines.
func funcOf(info *types.Info, fd *ast.FuncDecl) types.Object {
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	id, ok := recv.(*ast.Ident)
	if !ok {
		return nil
	}
	named := namedOf(info.Uses[id].Type())
	if named == nil {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == fd.Name.Name {
			return m
		}
	}
	return nil
}

// exportedFuncs lists a package's exported functions and the exported
// methods of its named types.
func exportedFuncs(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// satisfiesInterface reports whether named or a pointer to it implements
// an interface that has a method called method.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
