package lint

// shortsha keeps SHA-256 on one path. Every hash this system takes is a
// block or two long, and for those internal/shortsha computes SHA-256 at the
// price of its compressions while crypto/sha256's per-call wrapper costs
// about as much again. The rule: non-test code outside the kernel package
// does not name crypto/sha256.Sum256 or crypto/sha256.New — called or
// passed as a value. The one exception is merkle's default Hasher, which
// names sha256.New as the hash.Hash a WithHasher option replaces and carries
// a
//
//	//gridlint:ignore shortsha <reason>
//
// directive; everything else hashes on shortsha.Sum256 or shortsha.Chain,
// or, for many messages of one length, on the batch entry shortsha.Batch.

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShortSHA is the one-SHA-256-path analyzer.
var ShortSHA = &Analyzer{
	Name: "shortsha",
	Doc:  "non-test code hashes SHA-256 on internal/shortsha, not crypto/sha256.Sum256 or sha256.New",
	Run:  runShortSHA,
}

// kernelPkgSuffix is the one package allowed to wrap crypto/sha256.
const kernelPkgSuffix = "internal/shortsha"

func runShortSHA(pass *Pass) error {
	if strings.HasSuffix(pass.Path, kernelPkgSuffix) || pass.TypesInfo == nil {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "crypto/sha256" {
				return true
			}
			if name := fn.Name(); name == "Sum256" || name == "New" {
				pass.Reportf(sel.Pos(), "crypto/sha256.%s outside internal/shortsha; hash on shortsha.Sum256, Chain or the batch entry Batch, which skip the per-call wrapper", name)
			}
			return true
		})
	}
	return nil
}
