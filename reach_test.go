//go:build reach

package heterohadoop_test

// reach_test.go enforces the repository's surface rule: every non-test
// declaration under internal/ is reachable from a cmd/, examples/ or bench/
// main, or stands on keepList below with a reason. It type-checks both
// modules from source (go/types, standard library through the "source"
// importer), builds the declaration reference graph and runs a liveness
// fixpoint from the roots. Behind the reach tag because type-checking the
// standard library from source costs 3-13 s; ci.sh runs it as its own lane:
//
//	go test -tags reach -count=1 -run TestInternalSurfaceReachable .

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepList names the declarations no binary reaches that stay anyway, each
// with its reason. Names are relative to internal/: "pkg" keeps a whole
// package, "pkg.Type" a type with its methods, "pkg.Func" or
// "pkg.Type.Method" one function. An entry that covers nothing unreachable
// (it gained a caller, or was deleted) is stale and fails the test.
var keepList = map[string]string{
	// Test oracles: reference implementations a test holds production code to.
	"cache.Sim":                  "oracle: set-associative simulator TestAnalyticModelTracksSimulatorOrdering pins the analytic miss model against",
	"cache.NewSim":               "oracle: constructor of cache.Sim",
	"cache.HierarchySim":         "oracle: three-level simulator behind the same test",
	"cache.NewHierarchySim":      "oracle: constructor of cache.HierarchySim",
	"cache.Policy":               "oracle: replacement policy enum of cache.Sim",
	"power.Meter":                "oracle: the paper's 1 Hz wall-meter method; TestMeterReproducesReportEnergy checks the simulator's energy against it",
	"power.NewMeter":             "oracle: constructor of power.Meter",
	"sim.ObserveMeter":           "oracle: replays a Report through power.Meter for the same test",
	"workloads.NewModel":         "oracle: naive Bayes classifier the NB job's output is scored with",
	"workloads.Model":            "oracle: naive Bayes classifier the NB job's output is scored with",
	"workloads.MineTransactions": "oracle: in-memory FP-growth the MapReduce FP job is compared with",
	"workloads.ParsePatterns":    "oracle: decodes the FP job's output for that comparison",
	"workloads.FPTree.Support":   "oracle: brute-force support count FuzzFPTreeMine checks mining against",
	"mapreduce.SegmentFromKVs":   "oracle: builds segments from literal pairs for merge and wire tests",
	"mapreduce.ResultFromKVs":    "oracle: builds results from literal pairs for SortedOutput tests",
	"mapreduce.PartitionerFunc":  "oracle: string adapter FuzzStringVsArenaParity holds equal to the byte contract",

	// Accessors tests observe state through.
	"mapreduce.Result.Output":              "accessor: materialised output pairs, what parity tests compare",
	"mapreduce.Result.OutOfCore":           "accessor: tells tests the spill path ran",
	"mapreduce.KV.Bytes":                   "accessor: record size, pinned against segment accounting",
	"mapreduce.Counters.MapOutputRatio":    "accessor: dataflow ratio tests pin against workloads.Spec",
	"mapreduce.Counters.CombinerReduction": "accessor: dataflow ratio tests pin against workloads.Spec",
	"workloads.Spec.CombinerReduction":     "accessor: the model-side half of that comparison",
	"obs.Collector.Counter":                "accessor: reads one counter back in telemetry tests",
	"obs.Collector.SpanCount":              "accessor: reads span totals back in telemetry tests",
	"obs.Tick.IsZero":                      "accessor: tells tests the inert phase clock read no wall time",
	"obs/timeline.Trace.Run":               "accessor: looks a replayed run up by name",

	// The documented dist client API (DESIGN §11, README "Cluster mode").
	"dist.JobHandle.ID":     "client API: job id of a submission",
	"dist.JobHandle.Done":   "client API: completion channel for select loops",
	"dist.JobHandle.Status": "client API: live status of a submission",
	"dist.Master.Handle":    "client API: re-attach to a job by id",
	"dist.Master.JobStatus": "client API: status by id without a handle",
	"dist.Master.Registry":  "client API: register custom workloads on a master",
	"dist.Worker.Registry":  "client API: register custom workloads on a worker",
}

// implicitMethods are the standard-library interface methods (fmt, error,
// encoding/gob, io) that are called without the interface being declared in
// this tree.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "GobEncode": true, "GobDecode": true,
	"Read": true, "ReadAt": true, "Write": true, "Close": true,
}

// sortMethods are the sort and container/heap interface methods. They are
// called implicitly only on a type that implements sort.Interface, so they
// count as such only when the receiver declares Len, Less and Swap.
var sortMethods = map[string]bool{"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true}

const reachModule = "heterohadoop"

// reachDecl is one node of the reference graph: a function, method, type,
// or var/const (an iota block is one node).
type reachDecl struct {
	pkg      string // import path
	short    string // pkg relative to internal/, the keep-list's package spelling
	recv     string // receiver type name for methods
	base     string // declared name
	file     string
	line     int
	lines    int
	internal bool
	nodes    []ast.Node
	uses     map[*reachDecl]bool
}

// name is the keep-list spelling, e.g. "hdfs.Store.Write".
func (d *reachDecl) name() string {
	if d.recv != "" {
		return d.short + "." + d.recv + "." + d.base
	}
	return d.short + "." + d.base
}

// reachPkg is one type-checked package of the tree.
type reachPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

type reachLoader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*reachPkg // by import path
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != reachModule && !strings.HasPrefix(path, reachModule+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(path, reachModule))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &reachPkg{types: p, info: info, files: files}
	return p, nil
}

// loadTree type-checks every package of both modules (non-test files only).
func loadTree(t *testing.T) *reachLoader {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &reachLoader{
		fset: fset, root: root, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*reachPkg{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != root && (base[0] == '.' || base == "testdata" || strings.HasPrefix(base, "bench-scratch-")) {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err != nil {
			return nil // no buildable non-test Go files here
		}
		rel, _ := filepath.Rel(root, path)
		ip := reachModule
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		_, err = l.Import(ip)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// reachGraph collects the declarations of every loaded package, the edges
// between them, and the set of interface method names declared in the tree.
func reachGraph(l *reachLoader) (decls []*reachDecl, ifaceMethods map[string]bool) {
	byObj := map[types.Object]*reachDecl{}
	ifaceMethods = map[string]bool{}
	for path, p := range l.pkgs {
		info := p.info
		short := strings.TrimPrefix(path, reachModule+"/internal/")
		internal := short != path
		add := func(name string, node ast.Node, doc *ast.CommentGroup, objs ...types.Object) *reachDecl {
			start := node.Pos()
			if doc != nil {
				start = doc.Pos()
			}
			from, to := l.fset.Position(start), l.fset.Position(node.End())
			rel, _ := filepath.Rel(l.root, from.Filename)
			d := &reachDecl{
				pkg: path, short: short, base: name, file: rel, line: from.Line, lines: to.Line - from.Line + 1,
				internal: internal, nodes: []ast.Node{node}, uses: map[*reachDecl]bool{},
			}
			for _, o := range objs {
				byObj[o] = d
			}
			decls = append(decls, d)
			return d
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := info.Types[it].Type.(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceMethods[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					d := add(decl.Name.Name, decl, decl.Doc, info.Defs[decl.Name])
					if decl.Recv != nil {
						d.recv = recvName(decl.Recv.List[0].Type)
					}
				case *ast.GenDecl:
					var enum *reachDecl // the block's iota-linked const specs share one node
					for _, spec := range decl.Specs {
						doc := decl.Doc
						if decl.Lparen.IsValid() {
							doc = nil
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							add(spec.Name.Name, spec, doc, info.Defs[spec.Name])
						case *ast.ValueSpec:
							if spec.Doc != nil {
								doc = spec.Doc
							}
							var objs []types.Object
							var names []string
							for _, id := range spec.Names {
								if id.Name != "_" {
									objs = append(objs, info.Defs[id])
									names = append(names, id.Name)
								}
							}
							if len(objs) == 0 {
								continue // `var _ I = T{}` assertions neither root nor report
							}
							if decl.Tok == token.CONST && (len(spec.Values) == 0 || usesIota(spec)) {
								if enum == nil {
									enum = add(names[0], spec, doc, objs...)
								} else {
									enum.nodes = append(enum.nodes, spec)
									enum.lines += l.fset.Position(spec.End()).Line - l.fset.Position(spec.Pos()).Line + 1
									for _, o := range objs {
										byObj[o] = enum
									}
								}
								continue
							}
							add(strings.Join(names, ","), spec, doc, objs...)
						}
					}
				}
			}
		}
	}
	for _, d := range decls {
		info := l.pkgs[d.pkg].info
		for _, node := range d.nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
				case *types.Var:
					obj = o.Origin()
				}
				if u := byObj[obj]; u != nil && u != d {
					d.uses[u] = true
				}
				return true
			})
		}
	}
	return decls, ifaceMethods
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func usesIota(spec *ast.ValueSpec) bool {
	found := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return true
		})
	}
	return found
}

// reachLive runs the liveness fixpoint: a declaration is live when a root,
// or used by a live declaration; a method that can be called through an
// interface (or net/rpc reflection) is live as soon as its receiver type
// is; init is live when anything else in its package is.
func reachLive(decls []*reachDecl, ifaceMethods map[string]bool, roots func(*reachDecl) bool) map[*reachDecl]bool {
	typeDecls := map[string]*reachDecl{}    // "pkg\x00Type" -> type decl
	methods := map[string]map[string]bool{} // "pkg\x00Type" -> its method names
	for _, d := range decls {
		if d.recv == "" {
			typeDecls[d.pkg+"\x00"+d.base] = d
			continue
		}
		key := d.pkg + "\x00" + d.recv
		if methods[key] == nil {
			methods[key] = map[string]bool{}
		}
		methods[key][d.base] = true
	}
	sorter := func(key string) bool {
		m := methods[key]
		return m["Len"] && m["Less"] && m["Swap"]
	}
	live := map[*reachDecl]bool{}
	livePkgs := map[string]bool{}
	var mark func(*reachDecl)
	mark = func(d *reachDecl) {
		if live[d] {
			return
		}
		live[d] = true
		livePkgs[d.pkg] = true
		for u := range d.uses {
			mark(u)
		}
	}
	for _, d := range decls {
		if roots(d) {
			mark(d)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if live[d] {
				continue
			}
			key := d.pkg + "\x00" + d.recv
			implicit := d.recv != "" && live[typeDecls[key]] &&
				(ifaceMethods[d.base] || implicitMethods[d.base] || sortMethods[d.base] && sorter(key) || strings.HasSuffix(d.recv, "RPC"))
			if implicit || (d.recv == "" && d.base == "init" && livePkgs[d.pkg]) {
				mark(d)
				changed = true
			}
		}
	}
	return live
}

// keptBy returns the keep-list entry covering d: its own name, its
// receiver type's, or its package's.
func keptBy(d *reachDecl) string {
	candidates := []string{d.name(), d.short}
	if d.recv != "" {
		candidates = append(candidates, d.short+"."+d.recv)
	}
	for _, c := range candidates {
		if _, ok := keepList[c]; ok {
			return c
		}
	}
	return ""
}

func TestInternalSurfaceReachable(t *testing.T) {
	if len(keepList) > 40 {
		t.Errorf("keep-list has %d entries, the rule allows 40", len(keepList))
	}
	decls, ifaceMethods := reachGraph(loadTree(t))
	fromMains := reachLive(decls, ifaceMethods, func(d *reachDecl) bool { return !d.internal })

	// A keep-list entry earns its line only while it covers something no
	// binary reaches.
	covers := map[string]bool{}
	for _, d := range decls {
		if d.internal && !fromMains[d] {
			covers[keptBy(d)] = true
		}
	}
	for entry := range keepList {
		if !covers[entry] {
			t.Errorf("stale keep-list entry %q: it is reachable from a main or no longer exists", entry)
		}
	}

	withKept := reachLive(decls, ifaceMethods, func(d *reachDecl) bool {
		return !d.internal || keptBy(d) != ""
	})
	var dead []*reachDecl
	total := 0
	for _, d := range decls {
		if d.internal && !withKept[d] {
			dead = append(dead, d)
			total += d.lines
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	if len(dead) > 0 {
		var b strings.Builder
		for _, d := range dead {
			fmt.Fprintf(&b, "  %s:%d  %s (%d lines)\n", d.file, d.line, d.name(), d.lines)
		}
		t.Errorf("%d declarations (%d lines) under internal/ are reachable only from tests — delete them with their tests, or add a keep-list entry with a reason:\n%s", len(dead), total, b.String())
	}
}
