package bpel

import (
	"encoding/xml"
	"fmt"
)

// Marshal renders the document with an XML header and two-space
// indentation. It writes the AST directly, byte for byte what
// xml.MarshalIndent(p, "", "  ") writes for the same tree: attributes
// in field order, empty optional attributes and nil elements left out,
// and childless elements closed on their own line as <x ...></x>.
func Marshal(p *Process) ([]byte, error) {
	w := writer{buf: make([]byte, 0, len(xml.Header)+sizeHint(p))}
	w.buf = append(w.buf, xml.Header...)
	if err := w.process(p); err != nil {
		return nil, err
	}
	return append(w.buf, '\n'), nil
}

// writer appends indented XML to buf. Every element but the root
// starts on a fresh line, so an element has children exactly when buf
// grew after its start tag was closed.
type writer struct {
	buf     []byte
	scratch []byte // the attribute value handed to xml.EscapeText
}

// Write lets xml.EscapeText append to the buffer.
func (w *writer) Write(b []byte) (int, error) {
	w.buf = append(w.buf, b...)
	return len(b), nil
}

// open starts the tag <tag at the given depth.
func (w *writer) open(depth int, tag string) {
	if depth > 0 {
		w.buf = append(w.buf, '\n')
		for range depth {
			w.buf = append(w.buf, "  "...)
		}
	}
	w.buf = append(w.buf, '<')
	w.buf = append(w.buf, tag...)
}

// body closes the start tag and returns the mark close compares
// against to tell whether children followed.
func (w *writer) body() int {
	w.buf = append(w.buf, '>')
	return len(w.buf)
}

// close writes </tag>, on its own line when children were written
// since mark.
func (w *writer) close(depth int, tag string, mark int) {
	if len(w.buf) > mark {
		w.buf = append(w.buf, '\n')
		for range depth {
			w.buf = append(w.buf, "  "...)
		}
	}
	w.buf = append(w.buf, "</"...)
	w.buf = append(w.buf, tag...)
	w.buf = append(w.buf, '>')
}

// leaf closes an element that has attributes only.
func (w *writer) leaf(tag string) {
	w.buf = append(w.buf, "></"...)
	w.buf = append(w.buf, tag...)
	w.buf = append(w.buf, '>')
}

// attr writes name="value" with value escaped as encoding/xml escapes
// attribute values.
func (w *writer) attr(name, value string) {
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, `="`...)
	if plain(value) {
		w.buf = append(w.buf, value...)
	} else {
		w.scratch = append(w.scratch[:0], value...)
		xml.EscapeText(w, w.scratch) // writes to w cannot fail
	}
	w.buf = append(w.buf, '"')
}

// optAttr is attr for an omitempty field.
func (w *writer) optAttr(name, value string) {
	if value != "" {
		w.attr(name, value)
	}
}

// plain reports whether s is printable ASCII with nothing to escape.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f:
			return false
		case c == '"' || c == '\'' || c == '&' || c == '<' || c == '>':
			return false
		}
	}
	return true
}

func (w *writer) process(p *Process) error {
	w.open(0, "process")
	w.attr("name", p.Name)
	w.optAttr("targetNamespace", p.TargetNamespace)
	w.optAttr("xmlns", p.Xmlns)
	w.optAttr("suppressJoinFailure", p.SuppressJoinFailure)
	mark := w.body()
	if pl := p.PartnerLinks; pl != nil {
		w.open(1, "partnerLinks")
		m := w.body()
		for _, l := range pl.Items {
			w.open(2, "partnerLink")
			w.attr("name", l.Name)
			w.optAttr("partnerRole", l.PartnerRole)
			w.optAttr("myRole", l.MyRole)
			w.leaf("partnerLink")
		}
		w.close(1, "partnerLinks", m)
	}
	if vs := p.Variables; vs != nil {
		w.open(1, "variables")
		m := w.body()
		for _, v := range vs.Items {
			w.open(2, "variable")
			w.attr("name", v.Name)
			w.optAttr("type", v.Type)
			w.leaf("variable")
		}
		w.close(1, "variables", m)
	}
	if f := p.Flow; f != nil {
		if err := w.flow(1, f); err != nil {
			return err
		}
	}
	if s := p.Sequence; s != nil {
		if err := w.sequence(1, s); err != nil {
			return err
		}
	}
	w.close(0, "process", mark)
	return nil
}

func (w *writer) flow(depth int, f *Flow) error {
	w.open(depth, "flow")
	mark := w.body()
	if ls := f.Links; ls != nil {
		w.open(depth+1, "links")
		m := w.body()
		for _, l := range ls.Items {
			w.open(depth+2, "link")
			w.attr("name", l.Name)
			w.leaf("link")
		}
		w.close(depth+1, "links", m)
	}
	for _, s := range f.Sequences {
		if s != nil {
			if err := w.sequence(depth+1, s); err != nil {
				return err
			}
		}
	}
	for _, a := range f.Receives {
		w.receive(depth+1, a)
	}
	for _, a := range f.Invokes {
		w.invoke(depth+1, a)
	}
	for _, a := range f.Replies {
		w.reply(depth+1, a)
	}
	for _, a := range f.Assigns {
		w.assign(depth+1, a)
	}
	for _, a := range f.Empties {
		w.empty(depth+1, a)
	}
	w.close(depth, "flow", mark)
	return nil
}

func (w *writer) sequence(depth int, s *Sequence) error {
	w.open(depth, "sequence")
	w.optAttr("name", s.Name)
	mark := w.body()
	for _, item := range s.Items {
		switch a := item.(type) {
		case *Receive:
			w.receive(depth+1, a)
		case *Invoke:
			w.invoke(depth+1, a)
		case *Reply:
			w.reply(depth+1, a)
		case *Assign:
			w.assign(depth+1, a)
		case *Empty:
			w.empty(depth+1, a)
		default:
			return fmt.Errorf("bpel: sequence %q holds unsupported item %T", s.Name, item)
		}
	}
	w.close(depth, "sequence", mark)
	return nil
}

// The five activity kinds: the common attributes, the kind's own
// attributes, then targets, sources and (for assign) copies. A nil
// activity writes nothing, as encoding/xml skips nil pointers.

func (w *writer) receive(depth int, a *Receive) {
	if a == nil {
		return
	}
	w.start(depth, "receive", &a.Common)
	w.optAttr("partnerLink", a.PartnerLink)
	w.optAttr("operation", a.Operation)
	w.optAttr("variable", a.Variable)
	w.finish(depth, "receive", &a.Common, nil)
}

func (w *writer) invoke(depth int, a *Invoke) {
	if a == nil {
		return
	}
	w.start(depth, "invoke", &a.Common)
	w.optAttr("partnerLink", a.PartnerLink)
	w.optAttr("operation", a.Operation)
	w.optAttr("inputVariable", a.InputVariable)
	w.finish(depth, "invoke", &a.Common, nil)
}

func (w *writer) reply(depth int, a *Reply) {
	if a == nil {
		return
	}
	w.start(depth, "reply", &a.Common)
	w.optAttr("partnerLink", a.PartnerLink)
	w.optAttr("operation", a.Operation)
	w.optAttr("variable", a.Variable)
	w.finish(depth, "reply", &a.Common, nil)
}

func (w *writer) assign(depth int, a *Assign) {
	if a == nil {
		return
	}
	w.start(depth, "assign", &a.Common)
	w.finish(depth, "assign", &a.Common, a.Copies)
}

func (w *writer) empty(depth int, a *Empty) {
	if a == nil {
		return
	}
	w.start(depth, "empty", &a.Common)
	w.finish(depth, "empty", &a.Common, nil)
}

// start opens an activity with its common attributes.
func (w *writer) start(depth int, tag string, c *Common) {
	w.open(depth, tag)
	w.attr("name", c.Name)
	w.optAttr("joinCondition", c.JoinCondition)
	w.optAttr("suppressJoinFailure", c.SuppressJoinFailure)
}

// finish writes an activity's link attachments and copies and closes
// it.
func (w *writer) finish(depth int, tag string, c *Common, copies []Copy) {
	mark := w.body()
	for _, t := range c.Targets {
		w.open(depth+1, "target")
		w.attr("linkName", t.LinkName)
		w.leaf("target")
	}
	for _, s := range c.Sources {
		w.open(depth+1, "source")
		w.attr("linkName", s.LinkName)
		w.optAttr("transitionCondition", s.TransitionCondition)
		w.leaf("source")
	}
	for _, cp := range copies {
		w.open(depth+1, "copy")
		w.body()
		w.expr(depth+2, "from", cp.From)
		w.expr(depth+2, "to", cp.To)
		w.close(depth+1, "copy", -1)
	}
	w.close(depth, tag, mark)
}

func (w *writer) expr(depth int, tag string, e Expr) {
	w.open(depth, tag)
	w.optAttr("variable", e.Variable)
	w.optAttr("expression", e.Expression)
	w.leaf(tag)
}

// sizeHint estimates the document's length from the AST, so Marshal
// writes into one allocation: per element, an allowance for its
// indentation, tags and short attributes, plus its names, link names
// and transition conditions (doubled: their quotes escape to &#39;).
func sizeHint(p *Process) int {
	n := 256 + len(p.Name) + len(p.TargetNamespace) + len(p.Xmlns)
	if p.PartnerLinks != nil {
		for _, l := range p.PartnerLinks.Items {
			n += 64 + len(l.Name) + len(l.PartnerRole) + len(l.MyRole)
		}
	}
	if p.Variables != nil {
		for _, v := range p.Variables.Items {
			n += 48 + len(v.Name) + len(v.Type)
		}
	}
	var acts []*Common
	if f := p.Flow; f != nil {
		if f.Links != nil {
			for _, l := range f.Links.Items {
				n += 32 + len(l.Name)
			}
		}
		acts = f.activities()
	}
	if p.Sequence != nil {
		acts = append(acts, p.Sequence.activities()...)
	}
	for _, c := range acts {
		n += 192 + 2*len(c.Name)
		for _, t := range c.Targets {
			n += 40 + len(t.LinkName)
		}
		for _, s := range c.Sources {
			n += 40 + len(s.LinkName)
			if s.TransitionCondition != "" {
				n += 24 + 2*len(s.TransitionCondition)
			}
		}
	}
	return n
}
