package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DefaultCtxHTTPPackages are the packages whose outbound HTTP requests
// and raw dials must carry a context: the serving plane's peer hops, the
// CDN client (downloads and uploads), and the load drivers. A peer
// hop without a context cannot be canceled when the client goes away, so
// a dead request keeps streaming between edges; the peer relay dials its
// own connections, so a context-less dial would lose cancellation just
// as quietly. Test files are exempt — they drive short-lived in-process
// servers.
var DefaultCtxHTTPPackages = []string{
	"scdn/internal/server",
	"scdn/internal/cdnclient",
	"scdn/internal/loadharness",
	"scdn/cmd/scdn-loadgen",
	"scdn/cmd/scdn-serve",
}

// ctxlessFuncs are net/http package functions that build a request with
// no caller-supplied context.
var ctxlessFuncs = map[string]bool{"NewRequest": true, "Get": true, "Post": true, "Head": true, "PostForm": true}

// ctxlessClientMethods are *http.Client methods that do the same.
var ctxlessClientMethods = map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true}

// ctxlessDialFuncs are net package functions that dial with no
// caller-supplied context.
var ctxlessDialFuncs = map[string]bool{"Dial": true, "DialTimeout": true}

// CtxHTTP returns the ctxhttp analyzer for the given package list.
func CtxHTTP(packages []string) *Analyzer {
	set := make(map[string]bool, len(packages))
	for _, p := range packages {
		set[p] = true
	}
	a := &Analyzer{
		Name: "ctxhttp",
		Doc:  "outbound requests and dials in serving-plane packages must carry a context",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Packages {
			if !set[strings.TrimSuffix(pkg.Path, "_test")] || pkg.Info == nil {
				continue
			}
			for _, f := range pkg.Files {
				pos := pkg.Fset.Position(f.Pos())
				if strings.HasSuffix(pos.Filename, "_test.go") {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
						switch recv := s.Recv().String(); {
						case recv == "*net/http.Client" && ctxlessClientMethods[sel.Sel.Name]:
							pass.Reportf(pkg, call.Pos(),
								"http.Client.%s builds a context-less request; use http.NewRequestWithContext + Do so the fetch stays cancelable", sel.Sel.Name)
						case (recv == "*net.Dialer" || recv == "net.Dialer") && sel.Sel.Name == "Dial":
							pass.Reportf(pkg, call.Pos(),
								"net.Dialer.Dial dials without a context; use DialContext so the connection stays cancelable")
						}
						return true
					}
					if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
						switch path := fn.Pkg().Path(); {
						case path == "net/http" && ctxlessFuncs[fn.Name()]:
							pass.Reportf(pkg, call.Pos(),
								"http.%s builds a context-less request; use http.NewRequestWithContext so the fetch stays cancelable", fn.Name())
						case path == "net" && ctxlessDialFuncs[fn.Name()]:
							pass.Reportf(pkg, call.Pos(),
								"net.%s dials without a context; use (*net.Dialer).DialContext so the connection stays cancelable", fn.Name())
						}
					}
					return true
				})
			}
		}
	}
	return a
}
