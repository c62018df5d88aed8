package core

import (
	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"

	// The core driver registers no languages itself; tests exercise it
	// the way embedders do, with the standard frontends registered.
	_ "github.com/invoke-deobfuscation/invokedeob/internal/frontends"
)

// psParseErr parses src under the registered PowerShell frontend,
// letting driver-level tests assert "output still parses" without a
// direct dependency on the PowerShell parser packages.
func psParseErr(src string) error { return parseErr("powershell", src) }

// parseErr parses src under the registered frontend named lang.
func parseErr(lang, src string) error {
	fe, err := frontend.Get(lang)
	if err != nil {
		return err
	}
	toks, err := fe.Tokenize(src)
	if err != nil {
		return err
	}
	_, err = fe.Parse(src, toks)
	return err
}
