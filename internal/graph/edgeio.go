package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Edge stream encodings. The paper's ingestion experiments stream ASCII
// edge lists into the front-end nodes, while StreamDB persists binary
// records (§5, Fig 5.5 discussion); both formats are provided here.

// EdgeReader reads a stream of edges.
type EdgeReader interface {
	// ReadEdge returns the next edge, or io.EOF when the stream ends.
	ReadEdge() (Edge, error)
}

// EdgeWriter writes a stream of edges. Writers buffer internally; call
// Flush before closing the underlying sink.
type EdgeWriter interface {
	WriteEdge(Edge) error
	Flush() error
}

// ASCIIEdgeReader parses whitespace-separated "src dst" pairs, one per
// line. Blank lines and lines starting with '#' are skipped.
type ASCIIEdgeReader struct {
	s    *bufio.Scanner
	line int
}

// NewASCIIEdgeReader wraps r in an ASCII edge-list parser.
func NewASCIIEdgeReader(r io.Reader) *ASCIIEdgeReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), 1024*1024)
	return &ASCIIEdgeReader{s: s}
}

// ReadEdge implements EdgeReader.
func (r *ASCIIEdgeReader) ReadEdge() (Edge, error) {
	for r.s.Scan() {
		r.line++
		line := strings.TrimSpace(r.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return Edge{}, fmt.Errorf("graph: line %d: want 2 fields, got %d", r.line, len(fields))
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return Edge{}, fmt.Errorf("graph: line %d: bad src: %w", r.line, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return Edge{}, fmt.Errorf("graph: line %d: bad dst: %w", r.line, err)
		}
		e := Edge{Src: VertexID(src), Dst: VertexID(dst)}
		if err := ValidateEdge(e); err != nil {
			return Edge{}, fmt.Errorf("graph: line %d: %w", r.line, err)
		}
		return e, nil
	}
	if err := r.s.Err(); err != nil {
		return Edge{}, err
	}
	return Edge{}, io.EOF
}

// ASCIIEdgeWriter emits "src dst\n" lines.
type ASCIIEdgeWriter struct {
	w *bufio.Writer
}

// NewASCIIEdgeWriter wraps w in a buffered ASCII edge-list writer.
func NewASCIIEdgeWriter(w io.Writer) *ASCIIEdgeWriter {
	return &ASCIIEdgeWriter{w: bufio.NewWriterSize(w, 256*1024)}
}

// WriteEdge implements EdgeWriter.
func (w *ASCIIEdgeWriter) WriteEdge(e Edge) error {
	var buf [42]byte
	b := strconv.AppendInt(buf[:0], int64(e.Src), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.Dst), 10)
	b = append(b, '\n')
	_, err := w.w.Write(b)
	return err
}

// Flush implements EdgeWriter.
func (w *ASCIIEdgeWriter) Flush() error { return w.w.Flush() }

// BinaryEdgeReader reads fixed 16-byte little-endian (src,dst) records.
type BinaryEdgeReader struct {
	r   *bufio.Reader
	buf [16]byte
}

// NewBinaryEdgeReader wraps r in a binary edge reader.
func NewBinaryEdgeReader(r io.Reader) *BinaryEdgeReader {
	return &BinaryEdgeReader{r: bufio.NewReaderSize(r, 256*1024)}
}

// ReadEdge implements EdgeReader.
func (r *BinaryEdgeReader) ReadEdge() (Edge, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Edge{}, fmt.Errorf("graph: truncated binary edge record: %w", err)
		}
		return Edge{}, err
	}
	return Edge{
		Src: VertexID(binary.LittleEndian.Uint64(r.buf[0:8])),
		Dst: VertexID(binary.LittleEndian.Uint64(r.buf[8:16])),
	}, nil
}

// BinaryEdgeWriter writes fixed 16-byte little-endian (src,dst) records.
type BinaryEdgeWriter struct {
	w   *bufio.Writer
	buf [16]byte
}

// NewBinaryEdgeWriter wraps w in a binary edge writer.
func NewBinaryEdgeWriter(w io.Writer) *BinaryEdgeWriter {
	return &BinaryEdgeWriter{w: bufio.NewWriterSize(w, 256*1024)}
}

// WriteEdge implements EdgeWriter.
func (w *BinaryEdgeWriter) WriteEdge(e Edge) error {
	binary.LittleEndian.PutUint64(w.buf[0:8], uint64(e.Src))
	binary.LittleEndian.PutUint64(w.buf[8:16], uint64(e.Dst))
	_, err := w.w.Write(w.buf[:])
	return err
}

// Flush implements EdgeWriter.
func (w *BinaryEdgeWriter) Flush() error { return w.w.Flush() }

// SliceReader streams an in-memory edge list.
type SliceReader struct {
	edges []Edge
	pos   int
}

// NewSliceReader returns a reader over edges (not copied).
func NewSliceReader(edges []Edge) *SliceReader { return &SliceReader{edges: edges} }

// ReadEdge implements EdgeReader.
func (r *SliceReader) ReadEdge() (Edge, error) {
	if r.pos >= len(r.edges) {
		return Edge{}, io.EOF
	}
	e := r.edges[r.pos]
	r.pos++
	return e, nil
}

// ReadAllEdges drains an EdgeReader into a slice. Intended for tests and
// small inputs; ingestion streams edges instead.
func ReadAllEdges(r EdgeReader) ([]Edge, error) {
	var edges []Edge
	for {
		e, err := r.ReadEdge()
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
	}
}

// WriteAllEdges writes a slice of edges and flushes.
func WriteAllEdges(w EdgeWriter, edges []Edge) error {
	for _, e := range edges {
		if err := w.WriteEdge(e); err != nil {
			return err
		}
	}
	return w.Flush()
}
