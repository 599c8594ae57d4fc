package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// statePkgPath is the snapshot codec package whose Encoder/Decoder and Tag*
// constants define the on-disk container format.
const statePkgPath = "repro/internal/state"

// StatePair enforces the two symmetries the snapshot container format rests
// on, per package:
//
//  1. Every type that declares Snapshot(*state.Encoder) also declares
//     Restore(*state.Decoder), and vice versa. A snapshot no code can
//     restore is dead bytes; a restore with no producer is untestable.
//  2. Every state.Tag* section constant is used by exactly one
//     Encoder.Begin / Decoder.Expect pair. Two Begins on one tag mean two
//     components claim the same section — the decode side will validate
//     whichever got encoded and silently answer for the wrong component.
//     The tag argument must be a state.Tag* constant, not a literal, so
//     this pairing stays statically checkable.
//
// Methods named Snapshot/Restore that do not take the codec types (the obs
// registry's read-side Snapshot, the wire client's Restore(name)) are not
// part of the container format and are ignored.
var StatePair = &analysis.Analyzer{
	Name:  "statepair",
	Doc:   "every Snapshot(*state.Encoder) needs a matching Restore(*state.Decoder), and each state.Tag* constant must be used by exactly one Begin/Expect pair per package",
	Match: matchPrefix("repro/"),
	Run:   runStatePair,
}

// codecHalf records where one half of a Snapshot/Restore pair was declared.
type codecHalf struct {
	snapshot, restore token.Pos
}

// tagUse records every Begin/Expect call site for one state.Tag* constant.
type tagUse struct {
	begins, expects []token.Pos
}

func runStatePair(pass *analysis.Pass) error {
	pairs := map[string]*codecHalf{}
	tags := map[string]*tagUse{}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			recvName := receiverTypeName(fn.Recv.List[0].Type)
			if recvName == "" {
				continue
			}
			switch fn.Name.Name {
			case "Snapshot":
				if hasCodecParam(pass, fn, "Encoder") {
					half(pairs, recvName).snapshot = fn.Name.Pos()
				}
			case "Restore":
				if hasCodecParam(pass, fn, "Decoder") {
					half(pairs, recvName).restore = fn.Name.Pos()
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var isBegin bool
			switch sel.Sel.Name {
			case "Begin":
				isBegin = true
			case "Expect":
			default:
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != statePkgPath {
				return true
			}
			name, ok := tagConstName(pass, call.Args[0])
			if !ok {
				pass.Reportf(call.Args[0].Pos(), "%s tag must be a state.Tag* constant, not %s: literal tags defeat the one-Begin-one-Expect pairing check", sel.Sel.Name, types.ExprString(call.Args[0]))
				return true
			}
			u := tags[name]
			if u == nil {
				u = &tagUse{}
				tags[name] = u
			}
			if isBegin {
				u.begins = append(u.begins, call.Pos())
			} else {
				u.expects = append(u.expects, call.Pos())
			}
			return true
		})
	}

	names := make([]string, 0, len(pairs))
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := pairs[name]
		switch {
		case p.snapshot != token.NoPos && p.restore == token.NoPos:
			pass.Reportf(p.snapshot, "type %s declares Snapshot(*state.Encoder) but no Restore(*state.Decoder): a snapshot no code can restore is dead bytes", name)
		case p.restore != token.NoPos && p.snapshot == token.NoPos:
			pass.Reportf(p.restore, "type %s declares Restore(*state.Decoder) but no Snapshot(*state.Encoder): a restore path with no producer cannot be differentially tested", name)
		}
	}

	tagNames := make([]string, 0, len(tags))
	for name := range tags {
		tagNames = append(tagNames, name)
	}
	sort.Strings(tagNames)
	for _, name := range tagNames {
		u := tags[name]
		for _, pos := range u.begins[min(1, len(u.begins)):] {
			pass.Reportf(pos, "duplicate Begin(state.%s): two components claim the same section tag, so the decode side will answer for whichever encoded first", name)
		}
		for _, pos := range u.expects[min(1, len(u.expects)):] {
			pass.Reportf(pos, "duplicate Expect(state.%s): two components validate the same section tag", name)
		}
		if len(u.begins) > 0 && len(u.expects) == 0 {
			pass.Reportf(u.begins[0], "state.%s is encoded (Begin) but never validated (Expect) in this package: the section cannot be restored", name)
		}
		if len(u.expects) > 0 && len(u.begins) == 0 {
			pass.Reportf(u.expects[0], "state.%s is validated (Expect) but never encoded (Begin) in this package: the restore path has no producer", name)
		}
	}
	return nil
}

func half(pairs map[string]*codecHalf, name string) *codecHalf {
	p := pairs[name]
	if p == nil {
		p = &codecHalf{}
		pairs[name] = p
	}
	return p
}

// receiverTypeName unwraps *T, T, and generic T[P] receivers to T's name.
func receiverTypeName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// hasCodecParam reports whether fn takes a *state.<name> parameter.
func hasCodecParam(pass *analysis.Pass, fn *ast.FuncDecl, name string) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if isPtrToNamed(pass.TypesInfo.TypeOf(field.Type), statePkgPath, name) {
			return true
		}
	}
	return false
}

// tagConstName resolves a Begin/Expect tag argument to the state.Tag*
// constant it names, if it is one.
func tagConstName(pass *analysis.Pass, arg ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(arg).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != statePkgPath {
		return "", false
	}
	if len(c.Name()) <= 3 || c.Name()[:3] != "Tag" {
		return "", false
	}
	return c.Name(), true
}
