package qasm

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"codar/internal/circuit"
)

// maxInlineDepth bounds user-defined gate expansion to catch recursive
// definitions.
const maxInlineDepth = 100

// maxQubits caps the total declared quantum (and classical) bits. The
// parser runs on untrusted service input, and whole-register operations
// allocate per element — without a cap, "qreg q[2000000000];" followed by
// "barrier q;" would try to materialise billions of indices. 65536 is far
// beyond any device in the registry.
const maxQubits = 1 << 16

// reg is a declared quantum or classical register with its flat offset.
type reg struct {
	name   string
	offset int
	size   int
}

// gateDef is a user-defined gate awaiting inline expansion.
type gateDef struct {
	name   string
	params []string
	args   []string
	body   []bodyStmt
}

// bodyStmt is one statement inside a gate body: an application of a named
// gate to formal arguments, or a barrier over formal arguments.
type bodyStmt struct {
	name    string
	expr    expr    // the nodes of every parameter expression
	params  []int32 // the root node of each parameter
	args    []string
	barrier bool
}

// parser consumes a token stream and builds a circuit.
type parser struct {
	lex    *lexer
	tok    token // one-token lookahead
	primed bool
	// lexErr records a lexer failure. The failing position is masked as EOF
	// so the recursive-descent code needs no per-take error plumbing; every
	// entry point checks lexErr before trusting an accept.
	lexErr error

	qregs []reg
	cregs []reg
	defs  map[string]*gateDef
	circ  *circuit.Circuit
	// gates is the gate capacity the circuit reserves when it is created.
	gates int

	// Scratch reused by every statement: the applied gate's name (kept past
	// its token), operands, qubits, evaluated parameters (a stack: gate
	// inlining pushes each body statement's values above its caller's) and
	// expression nodes.
	name   []byte
	ops    []operand
	qs     []int
	params []float64
	expr   expr
	// qubits and floats back the slices of the emitted gates.
	qubits circuit.IntArena
	floats circuit.FloatArena
}

func newParser(r io.Reader, bufSize int) *parser {
	return &parser{lex: newLexer(r, bufSize), defs: make(map[string]*gateDef)}
}

// Parse compiles OpenQASM 2.0 source into a flat circuit over all declared
// quantum registers (concatenated in declaration order); classical bits are
// flattened the same way. include directives are ignored — the standard
// qelib1 gates are built in, and user-defined gates are inlined.
func Parse(src string) (*circuit.Circuit, error) {
	// A source shorter than the stream buffer is read whole; one spare byte
	// lets the lexer see the end of input.
	p := newParser(strings.NewReader(src), min(len(src)+1, lexBufSize))
	// Reserve the gate slice once: about one gate per statement, and never
	// more than one per 8 bytes ("x q[0];\n"), so input that fails to parse
	// reserves no more than a valid input of its length fills.
	p.gates = min(strings.Count(src, ";"), len(src)/8)
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	return p.circ, nil
}

func (p *parser) peek() token {
	if !p.primed {
		t, err := p.lex.next()
		if err != nil {
			if p.lexErr == nil {
				p.lexErr = err
			}
			t = token{kind: tokEOF}
		}
		p.tok = t
		p.primed = true
	}
	return p.tok
}

func (p *parser) take() token { t := p.peek(); p.primed = false; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) peekSymbol(s string) bool {
	t := p.peek()
	return t.kind == tokSymbol && string(t.text) == s
}

func (p *parser) peekIdent(s string) bool {
	t := p.peek()
	return t.kind == tokIdent && string(t.text) == s
}

func (p *parser) expectSymbol(s string) error {
	t := p.take()
	if t.kind != tokSymbol || string(t.text) != s {
		return fmt.Errorf("qasm: line %d: expected %q, found %s", t.line, s, t)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.take()
	if t.kind != tokIdent {
		return t, fmt.Errorf("qasm: line %d: expected identifier, found %s", t.line, t)
	}
	return t, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.take()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("qasm: line %d: expected integer, found %s", t.line, t)
	}
	n, err := strconv.Atoi(string(t.text))
	if err != nil {
		return 0, fmt.Errorf("qasm: line %d: expected integer, found %q", t.line, t.text)
	}
	return n, nil
}

// parseProgram parses the full translation unit.
func (p *parser) parseProgram() error {
	if err := p.parseHeader(); err != nil {
		return p.failure(err)
	}
	for !p.atEOF() {
		if err := p.parseStatement(); err != nil {
			return p.failure(err)
		}
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return p.finishProgram()
}

// failure returns the error a failed parse reports: a lexer failure
// surfaces as a masked EOF, so report the lexer's error, not the
// truncated-statement symptom.
func (p *parser) failure(err error) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// parseHeader consumes the optional "OPENQASM 2.0;" prologue.
func (p *parser) parseHeader() error {
	if p.peekIdent("OPENQASM") {
		p.take()
		t := p.take()
		if t.kind != tokNumber {
			return fmt.Errorf("qasm: line %d: expected version number", t.line)
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
	}
	return nil
}

// finishProgram applies the end-of-input rules once all statements parsed.
func (p *parser) finishProgram() error {
	if p.circ == nil {
		if len(p.qregs) == 0 {
			return fmt.Errorf("qasm: no quantum register declared")
		}
		// Registers but no operations: a legal (empty) program. Materialise
		// the circuit so it round-trips through Write.
		return p.ensureCircuit()
	}
	return nil
}

// ensureCircuit materialises the output circuit once registers are known.
func (p *parser) ensureCircuit() error {
	if p.circ != nil {
		return nil
	}
	total := 0
	for _, r := range p.qregs {
		total += r.size
	}
	if total == 0 {
		return fmt.Errorf("qasm: statement before any qreg declaration")
	}
	p.circ = circuit.New(total)
	p.circ.Gates = make([]circuit.Gate, 0, p.gates)
	for _, r := range p.cregs {
		p.circ.NumClbits += r.size
	}
	return nil
}

func (p *parser) parseStatement() error {
	t := p.peek()
	if t.kind != tokIdent {
		return fmt.Errorf("qasm: line %d: expected statement, found %s", t.line, t)
	}
	switch string(t.text) {
	case "include":
		p.take()
		s := p.take()
		if s.kind != tokString {
			return fmt.Errorf("qasm: line %d: expected file name after include", s.line)
		}
		return p.expectSymbol(";")
	case "qreg":
		return p.parseRegDecl(true)
	case "creg":
		return p.parseRegDecl(false)
	case "gate":
		return p.parseGateDef()
	case "opaque":
		// Declaration only; skip to the terminating semicolon.
		for !p.atEOF() && !p.peekSymbol(";") {
			p.take()
		}
		return p.expectSymbol(";")
	case "barrier":
		p.take()
		return p.parseBarrier()
	case "measure":
		p.take()
		return p.parseMeasure()
	case "reset":
		p.take()
		return p.parseReset()
	case "if":
		return fmt.Errorf("qasm: line %d: classical control (if) is not supported", t.line)
	default:
		return p.parseApplication()
	}
}

func (p *parser) parseRegDecl(quantum bool) error {
	p.take() // qreg/creg
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	name, line := string(id.text), id.line
	if err := p.expectSymbol("["); err != nil {
		return err
	}
	size, err := p.expectInt()
	if err != nil {
		return err
	}
	if size <= 0 {
		return fmt.Errorf("qasm: line %d: register %q has size %d", line, name, size)
	}
	if err := p.expectSymbol("]"); err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if p.circ != nil {
		return fmt.Errorf("qasm: line %d: register %q declared after first operation", line, name)
	}
	if _, ok := p.findReg([]byte(name), true); ok {
		return fmt.Errorf("qasm: line %d: register %q redeclared", line, name)
	}
	if _, ok := p.findReg([]byte(name), false); ok {
		return fmt.Errorf("qasm: line %d: register %q redeclared", line, name)
	}
	if quantum {
		offset := 0
		for _, r := range p.qregs {
			offset += r.size
		}
		if size > maxQubits-offset {
			return fmt.Errorf("qasm: line %d: register %q pushes the program past %d qubits", line, name, maxQubits)
		}
		p.qregs = append(p.qregs, reg{name: name, offset: offset, size: size})
	} else {
		offset := 0
		for _, r := range p.cregs {
			offset += r.size
		}
		if size > maxQubits-offset {
			return fmt.Errorf("qasm: line %d: register %q pushes the program past %d classical bits", line, name, maxQubits)
		}
		p.cregs = append(p.cregs, reg{name: name, offset: offset, size: size})
	}
	return nil
}

func (p *parser) findReg(name []byte, quantum bool) (reg, bool) {
	regs := p.qregs
	if !quantum {
		regs = p.cregs
	}
	for _, r := range regs {
		if r.name == string(name) {
			return r, true
		}
	}
	return reg{}, false
}

// operand is a parsed register reference: whole register (index < 0) or a
// single element.
type operand struct {
	offset int // flat offset of the register
	size   int
	index  int // -1 for whole-register
	line   int
}

// count returns how many bits the operand denotes.
func (o operand) count() int {
	if o.index >= 0 {
		return 1
	}
	return o.size
}

// at returns the flat index of the operand's k-th bit.
func (o operand) at(k int) int {
	if o.index >= 0 {
		return o.offset + o.index
	}
	return o.offset + k
}

func (p *parser) parseOperand(quantum bool) (operand, error) {
	name, err := p.expectIdent()
	if err != nil {
		return operand{}, err
	}
	r, ok := p.findReg(name.text, quantum)
	if !ok {
		kind := "quantum"
		if !quantum {
			kind = "classical"
		}
		return operand{}, fmt.Errorf("qasm: line %d: unknown %s register %q", name.line, kind, name.text)
	}
	o := operand{offset: r.offset, size: r.size, index: -1, line: name.line}
	if p.peekSymbol("[") {
		p.take()
		idx, err := p.expectInt()
		if err != nil {
			return operand{}, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return operand{}, err
		}
		if idx < 0 || idx >= r.size {
			return operand{}, fmt.Errorf("qasm: line %d: index %d out of range for %q[%d]", o.line, idx, r.name, r.size)
		}
		o.index = idx
	}
	return o, nil
}

// take1 returns a one-element qubit slice holding q.
func (p *parser) take1(q int) []int {
	qs := p.qubits.Take(1)
	qs[0] = q
	return qs
}

func (p *parser) parseBarrier() error {
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	p.qs = p.qs[:0]
	for {
		o, err := p.parseOperand(true)
		if err != nil {
			return err
		}
		for k := 0; k < o.count(); k++ {
			p.qs = append(p.qs, o.at(k))
		}
		if p.peekSymbol(",") {
			p.take()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	qs := p.qubits.Take(len(p.qs))
	copy(qs, p.qs)
	return p.addGate(circuit.Gate{Op: circuit.OpBarrier, Qubits: qs})
}

func (p *parser) parseMeasure() error {
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	q, err := p.parseOperand(true)
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	c, err := p.parseOperand(false)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if q.count() != c.count() {
		return fmt.Errorf("qasm: line %d: measure size mismatch (%d qubits -> %d bits)", q.line, q.count(), c.count())
	}
	for k := 0; k < q.count(); k++ {
		if err := p.addGate(circuit.Gate{Op: circuit.OpMeasure, Qubits: p.take1(q.at(k)), Cbit: c.at(k)}); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseReset() error {
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	o, err := p.parseOperand(true)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	for k := 0; k < o.count(); k++ {
		if err := p.addGate(circuit.Gate{Op: circuit.OpReset, Qubits: p.take1(o.at(k))}); err != nil {
			return err
		}
	}
	return nil
}

// parseApplication handles "name(params)? operands ;" statements.
func (p *parser) parseApplication() error {
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	line := id.line
	p.name = append(p.name[:0], id.text...)
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	p.params = p.params[:0]
	if p.peekSymbol("(") {
		p.take()
		if !p.peekSymbol(")") {
			for {
				p.expr = p.expr[:0]
				root, err := p.parseExpr()
				if err != nil {
					return err
				}
				v, err := p.expr.value(root, bindings{})
				if err != nil {
					return fmt.Errorf("qasm: line %d: %w", line, err)
				}
				p.params = append(p.params, v)
				if p.peekSymbol(",") {
					p.take()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	p.ops = p.ops[:0]
	for {
		o, err := p.parseOperand(true)
		if err != nil {
			return err
		}
		p.ops = append(p.ops, o)
		if p.peekSymbol(",") {
			p.take()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	return p.applyBroadcast(p.gateName(p.name), line, p.params, p.ops)
}

// gateName returns the string applyGate resolves name by, without
// allocating when the name denotes a built-in op or a defined gate: the
// op's canonical mnemonic resolves to the same op, and a definition's own
// name to itself.
func (p *parser) gateName(name []byte) string {
	if op, ok := circuit.OpByName(string(name)); ok {
		return op.Name()
	}
	if def, ok := p.defs[string(name)]; ok {
		return def.name
	}
	return string(name)
}

// applyBroadcast expands whole-register operands: every full-register
// operand must have the same size, and the gate is applied element-wise;
// indexed operands stay fixed.
func (p *parser) applyBroadcast(name string, line int, params []float64, ops []operand) error {
	bsize := -1
	for _, o := range ops {
		if o.index < 0 {
			if bsize >= 0 && o.size != bsize {
				return fmt.Errorf("qasm: line %d: broadcast register sizes differ (%d vs %d)", line, bsize, o.size)
			}
			bsize = o.size
		}
	}
	for k := 0; k < max(bsize, 1); k++ {
		qs := p.qubits.Take(len(ops))
		for i, o := range ops {
			qs[i] = o.at(k)
		}
		if err := p.applyGate(name, line, params, qs, 0); err != nil {
			return err
		}
	}
	return nil
}

// applyGate resolves a gate name to a builtin op or a user definition and
// emits / inlines it. qubits must be the gate's own slice; params may be
// scratch.
func (p *parser) applyGate(name string, line int, params []float64, qubits []int, depth int) error {
	if depth > maxInlineDepth {
		return fmt.Errorf("qasm: line %d: gate %q expands too deep (recursive definition?)", line, name)
	}
	if op, ok := circuit.OpByName(name); ok {
		g := circuit.Gate{Op: op, Qubits: qubits}
		if len(params) > 0 {
			g.Params = p.floats.Take(len(params))
			copy(g.Params, params)
		}
		return p.addGateAt(g, line)
	}
	def, ok := p.defs[name]
	if !ok {
		return fmt.Errorf("qasm: line %d: unknown gate %q", line, name)
	}
	if len(params) != len(def.params) {
		return fmt.Errorf("qasm: line %d: gate %q expects %d params, got %d", line, name, len(def.params), len(params))
	}
	if len(qubits) != len(def.args) {
		return fmt.Errorf("qasm: line %d: gate %q expects %d qubits, got %d", line, name, len(def.args), len(qubits))
	}
	env := bindings{names: def.params, vals: params}
	for _, st := range def.body {
		qs := p.qubits.Take(len(st.args))
		for i, an := range st.args {
			k := lastIndex(def.args, an)
			if k < 0 {
				return fmt.Errorf("qasm: gate %q: unbound argument %q", name, an)
			}
			qs[i] = qubits[k]
		}
		if st.barrier {
			if err := p.addGateAt(circuit.Gate{Op: circuit.OpBarrier, Qubits: qs}, line); err != nil {
				return err
			}
			continue
		}
		// Push this statement's values above the caller's on the
		// parameter stack; an append that moves the stack leaves the
		// caller's view intact.
		base := len(p.params)
		for _, root := range st.params {
			v, err := st.expr.value(root, env)
			if err != nil {
				return fmt.Errorf("qasm: line %d: gate %q: %w", line, name, err)
			}
			p.params = append(p.params, v)
		}
		err := p.applyGate(st.name, line, p.params[base:], qs, depth+1)
		p.params = p.params[:base]
		if err != nil {
			return err
		}
	}
	return nil
}

// lastIndex returns the index of the last occurrence of s in list, or -1:
// a formal argument declared twice binds to its last position.
func lastIndex(list []string, s string) int {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == s {
			return i
		}
	}
	return -1
}

func (p *parser) addGate(g circuit.Gate) error { return p.addGateAt(g, 0) }

func (p *parser) addGateAt(g circuit.Gate, line int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("qasm: line %d: %v", line, r)
		}
	}()
	p.circ.Add(g)
	return nil
}

// parseGateDef parses "gate name(params)? args { body }".
func (p *parser) parseGateDef() error {
	p.take() // gate
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &gateDef{name: string(id.text)}
	if p.peekSymbol("(") {
		p.take()
		if !p.peekSymbol(")") {
			for {
				id, err := p.expectIdent()
				if err != nil {
					return err
				}
				def.params = append(def.params, string(id.text))
				if p.peekSymbol(",") {
					p.take()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return err
		}
		def.args = append(def.args, string(id.text))
		if p.peekSymbol(",") {
			p.take()
			continue
		}
		break
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	for !p.peekSymbol("}") {
		if p.atEOF() {
			return fmt.Errorf("qasm: unterminated body of gate %q", def.name)
		}
		st, err := p.parseBodyStmt()
		if err != nil {
			return err
		}
		def.body = append(def.body, st)
	}
	p.take() // }
	p.defs[def.name] = def
	return nil
}

// parseBodyStmt parses one statement inside a gate body.
func (p *parser) parseBodyStmt() (bodyStmt, error) {
	id, err := p.expectIdent()
	if err != nil {
		return bodyStmt{}, err
	}
	st := bodyStmt{name: string(id.text)}
	p.expr = p.expr[:0]
	if st.name == "barrier" {
		st.barrier = true
	} else if p.peekSymbol("(") {
		p.take()
		if !p.peekSymbol(")") {
			for {
				root, err := p.parseExpr()
				if err != nil {
					return bodyStmt{}, err
				}
				st.params = append(st.params, root)
				if p.peekSymbol(",") {
					p.take()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return bodyStmt{}, err
		}
	}
	st.expr = append(expr(nil), p.expr...)
	for {
		arg, err := p.expectIdent()
		if err != nil {
			return bodyStmt{}, err
		}
		st.args = append(st.args, string(arg.text))
		if p.peekSymbol(",") {
			p.take()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return bodyStmt{}, err
	}
	return st, nil
}
