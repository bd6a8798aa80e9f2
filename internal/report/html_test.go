package report

import (
	"strings"
	"testing"
)

func TestHTMLPageWrapsBlocks(t *testing.T) {
	page := HTMLPage("My <Report>", []string{"plain text & stuff"})
	if !strings.Contains(page, "My &lt;Report&gt;") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(page, "plain text &amp; stuff") {
		t.Fatal("text block not escaped")
	}
	if !strings.Contains(page, "</html>") {
		t.Fatal("unterminated page")
	}
}
