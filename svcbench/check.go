package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"incognito/internal/service"
)

// checkRelease verifies a released CSV without any engine code: rows are
// grouped by the value strings of the QI columns the policy declares,
// every class must hold at least k rows, and the rows missing from the
// release (suppressed outliers) must number at most maxSuppress.
func checkRelease(released string, qiCols []string, k, maxSuppress, inputRows int) error {
	var (
		header  []string
		classes = make(map[string]int)
		idx     = make([]int, len(qiCols))
		key     []byte
		rows    int
	)
	bindHeader := func(h []string) error {
		header = append([]string(nil), h...)
		for i, name := range qiCols {
			idx[i] = -1
			for j, col := range header {
				if col == name {
					idx[i] = j
				}
			}
			if idx[i] < 0 {
				return fmt.Errorf("release has no QI column %q", name)
			}
		}
		return nil
	}
	count := func(field func(int) string) {
		key = key[:0]
		for _, c := range idx {
			key = append(key, field(c)...)
			key = append(key, 0)
		}
		classes[string(key)]++
		rows++
	}
	if strings.IndexByte(released, '"') < 0 {
		// No quoted field: every line is a record and every comma a
		// separator, so the text is split in place.
		lines := strings.Split(strings.TrimSuffix(released, "\n"), "\n")
		if err := bindHeader(strings.Split(lines[0], ",")); err != nil {
			return err
		}
		fields := make([]string, 0, len(header))
		for n, line := range lines[1:] {
			fields = fields[:0]
			for {
				i := strings.IndexByte(line, ',')
				if i < 0 {
					fields = append(fields, line)
					break
				}
				fields = append(fields, line[:i])
				line = line[i+1:]
			}
			if len(fields) != len(header) {
				return fmt.Errorf("release row %d has %d fields, header has %d", n+1, len(fields), len(header))
			}
			count(func(c int) string { return fields[c] })
		}
	} else {
		r := csv.NewReader(strings.NewReader(released))
		r.ReuseRecord = true
		h, err := r.Read()
		if err != nil {
			return fmt.Errorf("release header: %w", err)
		}
		if err := bindHeader(h); err != nil {
			return err
		}
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("release row %d: %w", rows+1, err)
			}
			count(func(c int) string { return rec[c] })
		}
	}
	if suppressed := inputRows - rows; suppressed < 0 || suppressed > maxSuppress {
		return fmt.Errorf("release has %d of %d input rows: %d suppressed, at most %d allowed",
			rows, inputRows, suppressed, maxSuppress)
	}
	for key, n := range classes {
		if n < k {
			return fmt.Errorf("QI class %q has %d rows, fewer than k=%d",
				strings.ReplaceAll(strings.TrimSuffix(key, "\x00"), "\x00", ","), n, k)
		}
	}
	return nil
}

// releasedCSV extracts the released_csv member of a result payload. The
// member is unescaped in one pass; a payload using escapes other than the
// ones encoding/json writes for CSV text is decoded in full instead.
func releasedCSV(payload []byte) (string, error) {
	const member = `"released_csv":"`
	i := bytes.Index(payload, []byte(member))
	if i < 0 {
		return "", fmt.Errorf("result payload has no released_csv")
	}
	rest := payload[i+len(member):]
	out := make([]byte, 0, len(rest))
	for {
		j := bytes.IndexAny(rest, `"\`)
		if j < 0 {
			return "", fmt.Errorf("result payload: unterminated released_csv")
		}
		out = append(out, rest[:j]...)
		if rest[j] == '"' {
			return string(out), nil
		}
		if j+1 >= len(rest) {
			return "", fmt.Errorf("result payload: unterminated released_csv")
		}
		n := 2
		switch c := rest[j+1]; c {
		case 'n':
			out = append(out, '\n')
		case '"', '\\', '/':
			out = append(out, c)
		case 'u':
			// encoding/json writes <, > and & as \u00XX.
			v, err := strconv.ParseUint(string(rest[j+2:min(j+6, len(rest))]), 16, 32)
			if err != nil || utf16.IsSurrogate(rune(v)) {
				return releasedCSVSlow(payload)
			}
			out = utf8.AppendRune(out, rune(v))
			n = 6
		default:
			return releasedCSVSlow(payload)
		}
		rest = rest[j+n:]
	}
}

func releasedCSVSlow(payload []byte) (string, error) {
	var d struct {
		ReleasedCSV string `json:"released_csv"`
	}
	err := json.Unmarshal(payload, &d)
	return d.ReleasedCSV, err
}

// decoded is the part of a result payload the counters read.
type decoded struct {
	Stats service.StatsPayload
	Delta *service.DeltaStatsPayload
}

// decode reads the stats and delta members, which follow the released
// CSV, without scanning the CSV again: a member name with its quotes and
// colon cannot occur inside a JSON string, where quotes are escaped.
func (d *decoded) decode(payload []byte) error {
	for name, v := range map[string]any{"stats": &d.Stats, "delta": &d.Delta} {
		i := bytes.LastIndex(payload, []byte(`"`+name+`":`))
		if i < 0 {
			continue
		}
		if err := json.NewDecoder(bytes.NewReader(payload[i+len(name)+3:])).Decode(v); err != nil {
			return fmt.Errorf("result payload %s: %w", name, err)
		}
	}
	return nil
}

// samePayload compares a daemon result with the library path's payload;
// a delta job's savings block is dropped first, since a cold run has none.
func samePayload(daemon, library []byte) error {
	var p service.ResultPayload
	if err := json.Unmarshal(daemon, &p); err != nil {
		return fmt.Errorf("result payload: %w", err)
	}
	if p.Delta != nil {
		p.Delta = nil
		var err error
		if daemon, err = json.Marshal(p); err != nil {
			return err
		}
	}
	if !bytes.Equal(daemon, library) {
		return fmt.Errorf("daemon result (%d bytes) differs from the library path (%d bytes)", len(daemon), len(library))
	}
	return nil
}
