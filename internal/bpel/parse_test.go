package bpel

import (
	"encoding/xml"
	"fmt"
)

// Parse reads a document produced by Marshal (or hand-written in the
// same subset). It is the round-trip oracle of the generator tests:
// nothing in the pipeline reads BPEL back.
func Parse(data []byte) (*Process, error) {
	var p Process
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("bpel: %w", err)
	}
	return &p, nil
}

// UnmarshalXML reads the items back in document order.
func (s *Sequence) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	for _, a := range start.Attr {
		if a.Name.Local == "name" {
			s.Name = a.Value
		}
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var item any
			switch t.Name.Local {
			case "receive":
				item = &Receive{}
			case "invoke":
				item = &Invoke{}
			case "reply":
				item = &Reply{}
			case "assign":
				item = &Assign{}
			case "empty":
				item = &Empty{}
			default:
				return fmt.Errorf("bpel: sequence holds unsupported element <%s>", t.Name.Local)
			}
			if err := d.DecodeElement(item, &t); err != nil {
				return err
			}
			s.Items = append(s.Items, item)
		case xml.EndElement:
			return nil
		}
	}
}
