// Package bitsops flags arithmetic and ordered-comparison operators
// applied directly to fp.Bits values outside the fp package.
//
// fp.Bits is an integer type carrying a raw IEEE-754 encoding, so
// `a + b`, `a < b`, `a * 2` all compile — and are all numerically
// meaningless: integer addition of two encodings is not float addition,
// and unsigned comparison mis-orders any pair with a negative member.
// Real numeric work must go through fp.Env (arithmetic) or fp.Format
// (decode, FlipBit, field masks). Inside package fp the raw encoding is
// the point, so the defining package is exempt; everywhere else only
// `==` and `!=` remain legal, because bit-pattern equality is exactly
// what golden comparison means.
package bitsops

import (
	"go/ast"
	"go/token"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// Analyzer is the bitsops invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "bitsops",
	Doc:      "flag arithmetic/comparison operators on fp.Bits outside package fp; bit-pattern math is not IEEE math",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "fp" {
		// The soft-float implementation manipulates encodings by design.
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	types := []ast.Node{(*ast.BinaryExpr)(nil), (*ast.AssignStmt)(nil), (*ast.IncDecStmt)(nil), (*ast.UnaryExpr)(nil)}
	ins.WithStack(types, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		if pass.InTestFile(n.Pos()) {
			return false
		}
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if !flaggedOp(e.Op) || isConst(pass, e) {
				return true
			}
			if isBits(pass, e.X) || isBits(pass, e.Y) {
				reportNode(pass, file, stack, e.OpPos, e.Op)
			}
		case *ast.AssignStmt:
			if op, ok := flaggedAssign(e.Tok); ok && len(e.Lhs) == 1 && isBits(pass, e.Lhs[0]) {
				reportNode(pass, file, stack, e.TokPos, op)
			}
		case *ast.IncDecStmt:
			if isBits(pass, e.X) {
				reportNode(pass, file, stack, e.TokPos, e.Tok)
			}
		case *ast.UnaryExpr:
			// ^b and -b on an encoding are as meaningless as the
			// binary forms.
			if (e.Op == token.XOR || e.Op == token.SUB) && !isConst(pass, e) && isBits(pass, e.X) {
				reportNode(pass, file, stack, e.OpPos, e.Op)
			}
		}
		return true
	})
	return nil, nil
}

// reportNode reports unless an enclosing statement or declaration on the
// stack carries the allow directive.
func reportNode(pass *analysis.Pass, file *ast.File, stack []ast.Node, pos token.Pos, op token.Token) {
	for _, n := range stack {
		if pass.Allowed(file, n) {
			return
		}
	}
	pass.Reportf(pos, "operator %q on fp.Bits treats an IEEE-754 encoding as an integer; use fp.Env arithmetic or fp.Format bit helpers", op.String())
}

func isBits(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	return analysis.IsPkgType(tv.Type, "fp", "Bits")
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func flaggedOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT,
		token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

func flaggedAssign(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.SHL_ASSIGN:
		return token.SHL, true
	case token.SHR_ASSIGN:
		return token.SHR, true
	case token.AND_ASSIGN:
		return token.AND, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.XOR_ASSIGN:
		return token.XOR, true
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT, true
	}
	return 0, false
}
