package plan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// NodeSamples holds one value of every node type the package declares;
// fingerprint_test.go renders them through the fmt oracle too.
var NodeSamples = []Node{
	&Loop{Var: "i", Count: CountExpr{Lit: 2}},
	&ReadSlab{Array: "x", Index: "s", Buf: "halo_x", Ghosts: "ghost_x", Left: 1, Right: 1},
	&NewStaging{Array: "c", Buf: "icla_c", RowsLike: "icla_a"},
	&AutoStage{Array: "c"},
	&FlushStage{Array: "c"},
	&WriteBuf{Array: "z", Buf: "out_z"},
	&ZeroVec{Vec: "temp", RowsLike: "icla_a"},
	&Axpy{Vec: "temp", A: "icla_a", ACol: "i", B: "icla_b", BCol: "m"},
	&SumStore{Vec: "temp", Array: "c"},
	&ResetCounter{},
	&Redistribute{Src: "a", Dst: "b", Transpose: true, Method: "direct", MemElems: 64},
	&NewSlab{Array: "z", Index: "s", Buf: "out_z"},
	&Ewise{Out: "out_z", Array: "z", Lo: 1, Hi: 30,
		Expr: &EBin{Op: '+', L: &EConst{V: 2}, R: &EBuf{Buf: "halo_x", Array: "x", Off: -1}}},
	&Exchange{Arrays: []string{"x"}, Ghosts: []string{"ghost_x"}, Left: 1, Right: 1},
}

// AppendCanonical exposes the bytes Fingerprint hashes to the oracle
// comparison in fingerprint_test.go.
var AppendCanonical = appendCanonical

// TestHashNodeCoversEveryNodeType hashes one value of every node type the
// package declares — every type with a node() method, found in the
// package source — and fails if any reaches appendNode's unknown fold,
// whose %+v rendering would let a field added to the node silently move
// every fingerprint that contains it.
func TestHashNodeCoversEveryNodeType(t *testing.T) {
	var sampled []string
	for _, n := range NodeSamples {
		if b := appendNode(nil, n); strings.Contains(string(b), "unknown") {
			t.Errorf("%T reaches the unknown fold: %s", n, b)
		}
		sampled = append(sampled, reflect.TypeOf(n).Elem().Name())
	}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["plan"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "node" || fn.Recv == nil {
				continue
			}
			typ := fn.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
			if !slices.Contains(sampled, typ) {
				t.Errorf("node type %s has no sample here", typ)
			}
		}
	}
}

// TestNodeLabelIsTypeName holds NodeLabel to the rendering it replaced:
// a plain node's label is its bare type name, which NodeSamples covers
// for every node type the package declares.
func TestNodeLabelIsTypeName(t *testing.T) {
	for _, n := range NodeSamples {
		want := reflect.TypeOf(n).Elem().Name()
		switch n := n.(type) {
		case *Loop:
			want = "loop " + n.Var
		case *Redistribute:
			want = "redistribute " + n.Src + "->" + n.Dst
		}
		if got := NodeLabel(n); got != want {
			t.Errorf("NodeLabel(%T) = %q, want %q", n, got, want)
		}
	}
}
