package qasm

import (
	"fmt"
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

// workBase bounds what a program may cost beyond its length: by any point
// of the input, the gates emitted plus the definitions expanded may not
// exceed workBase plus one per byte read. Without it, a few hundred bytes
// of definitions that each apply the previous one twice expand to more
// gates than memory holds. Parse and Stream count alike, at the byte after
// each statement, so they reach the same verdict.
const workBase = 1 << 19

// maxExprDepth bounds the nesting of a parameter expression (parentheses,
// function calls, unary signs and exponents), which the parser descends
// recursively.
const maxExprDepth = 1000

// regScan is the register count up to which lookups scan the declarations;
// past it they go through an index by name. For the one register most
// programs declare, the scan costs a third of a map lookup.
const regScan = 8

// reg is a declared quantum or classical register with its flat offset.
type reg struct {
	name    string
	offset  int
	size    int
	quantum bool
}

// gateDef is a user-defined gate awaiting inline expansion.
type gateDef struct {
	name   string
	params []string
	args   []string
	body   []bodyStmt
}

// bodyStmt is one statement inside a gate body: an application of a named
// gate to formal arguments, or a barrier over formal arguments. A name that
// denotes a built-in op is resolved when the body is parsed; any other
// name is looked up among the definitions when the body is expanded.
type bodyStmt struct {
	name    string
	op      circuit.Op
	builtin bool
	expr    expr    // the nodes of every parameter expression
	params  []int32 // the root node of each parameter
	args    []string
	barrier bool
}

// parser consumes a token stream and builds a circuit.
type parser struct {
	lex *lexer
	// tok is the one-token lookahead, which the lexer scans in place. A
	// lexer failure reads as end of input, so the recursive-descent code
	// needs no per-take error plumbing; every entry point checks lex.err
	// before trusting an accept.
	tok    token
	primed bool
	// line is the line of the statement being parsed.
	line int

	// regs holds the registers of both kinds in declaration order, one
	// namespace; regIndex indexes them by name once there are more than
	// regScan. nq and nc are the running qubit and classical-bit totals.
	regs     []reg
	regIndex map[string]int
	nq, nc   int
	defs     map[string]*gateDef
	circ     *circuit.Circuit
	// gates is the gate capacity the circuit reserves when it is created.
	gates int
	// work counts the gates emitted and the definitions expanded (see
	// workBase); depth is the current expression nesting.
	work  int
	depth int

	// Scratch reused by every statement: the applied gate's name when it
	// is not a built-in (kept past its token), operands, qubits, evaluated
	// parameters (a stack: gate inlining pushes each body statement's
	// values above its caller's), expression nodes and their values.
	name   []byte
	ops    []operand
	qs     []int
	params []float64
	expr   expr
	vals   []float64
	// qubits and floats back the slices of the emitted gates.
	qubits circuit.IntArena
	floats circuit.FloatArena
}

func newParser(lex *lexer) *parser {
	return &parser{lex: lex, defs: make(map[string]*gateDef)}
}

// Parse compiles OpenQASM 2.0 source into a flat circuit over all declared
// quantum registers (concatenated in declaration order); classical bits are
// flattened the same way. include directives are ignored — the standard
// qelib1 gates are built in, and user-defined gates are inlined.
func Parse(src string) (*circuit.Circuit, error) {
	p := newParser(newSourceLexer(src))
	// Reserve the gate slice once: about one gate per statement, and never
	// more than one per 8 bytes ("x q[0];\n"), so input that fails to parse
	// reserves no more than a valid input of its length fills.
	p.gates = min(strings.Count(src, ";"), len(src)/8)
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	return p.circ, nil
}

// peek returns the lookahead token, scanning it on first use.
func (p *parser) peek() *token {
	if !p.primed {
		p.lex.next(&p.tok)
		p.primed = true
	}
	return &p.tok
}

// take consumes the lookahead token and returns it; it stays valid until
// the next peek.
func (p *parser) take() *token { t := p.peek(); p.primed = false; return t }
func (p *parser) atEOF() bool  { return p.peek().kind == tokEOF }

func (p *parser) peekSymbol(sym byte) bool { return p.peek().sym == sym }

func (p *parser) expectSymbol(sym byte) error {
	t := p.take()
	if t.sym != sym {
		return fmt.Errorf("qasm: line %d: expected %q, found %s", t.line, symText(sym), *t)
	}
	return nil
}

func (p *parser) expectIdent() (*token, error) {
	t := p.take()
	if t.kind != tokIdent {
		return t, fmt.Errorf("qasm: line %d: expected identifier, found %s", t.line, *t)
	}
	return t, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.take()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("qasm: line %d: expected integer, found %s", t.line, *t)
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
	if p.lex.err != nil {
		return p.lex.err
	}
	return p.finishProgram()
}

// failure returns the error a failed parse reports: a lexer failure
// surfaces as a masked EOF, so report the lexer's error, not the
// truncated-statement symptom.
func (p *parser) failure(err error) error {
	if p.lex.err != nil {
		return p.lex.err
	}
	return err
}

// parseHeader consumes the optional "OPENQASM 2.0;" prologue.
func (p *parser) parseHeader() error {
	if t := p.peek(); t.kind == tokIdent && string(t.text) == "OPENQASM" {
		p.take()
		t := p.take()
		if t.kind != tokNumber {
			return fmt.Errorf("qasm: line %d: expected version number", t.line)
		}
		if err := p.expectSymbol(';'); err != nil {
			return err
		}
	}
	return nil
}

// finishProgram applies the end-of-input rules once all statements parsed.
func (p *parser) finishProgram() error {
	if p.circ == nil {
		if p.nq == 0 {
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
	if p.nq == 0 {
		return fmt.Errorf("qasm: statement before any qreg declaration")
	}
	p.circ = circuit.New(p.nq)
	p.circ.Gates = make([]circuit.Gate, 0, p.gates)
	p.circ.NumClbits = p.nc
	return nil
}

func (p *parser) parseStatement() error {
	t := p.peek()
	if t.kind != tokIdent {
		return fmt.Errorf("qasm: line %d: expected statement, found %s", t.line, *t)
	}
	p.line = t.line
	switch string(t.text) {
	case "include":
		p.take()
		s := p.take()
		if s.kind != tokString {
			return fmt.Errorf("qasm: line %d: expected file name after include", s.line)
		}
		return p.expectSymbol(';')
	case "qreg":
		return p.parseRegDecl(true)
	case "creg":
		return p.parseRegDecl(false)
	case "gate":
		return p.parseGateDef()
	case "opaque":
		// Declaration only; skip to the terminating semicolon.
		for !p.atEOF() && !p.peekSymbol(';') {
			p.take()
		}
		return p.expectSymbol(';')
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
	if err := p.expectSymbol('['); err != nil {
		return err
	}
	size, err := p.expectInt()
	if err != nil {
		return err
	}
	if size <= 0 {
		return fmt.Errorf("qasm: line %d: register %q has size %d", line, name, size)
	}
	if err := p.expectSymbol(']'); err != nil {
		return err
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	if p.circ != nil {
		return fmt.Errorf("qasm: line %d: register %q declared after first operation", line, name)
	}
	if p.lookupReg([]byte(name)) != nil {
		return fmt.Errorf("qasm: line %d: register %q redeclared", line, name)
	}
	total, kind := &p.nq, "qubits"
	if !quantum {
		total, kind = &p.nc, "classical bits"
	}
	if size > maxQubits-*total {
		return fmt.Errorf("qasm: line %d: register %q pushes the program past %d %s", line, name, maxQubits, kind)
	}
	p.regs = append(p.regs, reg{name: name, offset: *total, size: size, quantum: quantum})
	*total += size
	if len(p.regs) > regScan {
		if p.regIndex == nil {
			p.regIndex = make(map[string]int, 2*len(p.regs))
			for i, r := range p.regs {
				p.regIndex[r.name] = i
			}
		}
		p.regIndex[name] = len(p.regs) - 1
	}
	return nil
}

// lookupReg returns the register of either kind declared as name, or nil.
func (p *parser) lookupReg(name []byte) *reg {
	if p.regIndex != nil {
		if i, ok := p.regIndex[string(name)]; ok {
			return &p.regs[i]
		}
		return nil
	}
	for i := range p.regs {
		if p.regs[i].name == string(name) {
			return &p.regs[i]
		}
	}
	return nil
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
	r := p.lookupReg(name.text)
	if r == nil || r.quantum != quantum {
		kind := "quantum"
		if !quantum {
			kind = "classical"
		}
		return operand{}, fmt.Errorf("qasm: line %d: unknown %s register %q", name.line, kind, name.text)
	}
	o := operand{offset: r.offset, size: r.size, index: -1, line: name.line}
	if p.peekSymbol('[') {
		p.take()
		idx, err := p.expectInt()
		if err != nil {
			return operand{}, err
		}
		if err := p.expectSymbol(']'); err != nil {
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
		if p.peekSymbol(',') {
			p.take()
			continue
		}
		break
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	qs := p.qubits.Take(len(p.qs))
	copy(qs, p.qs)
	return p.emit(circuit.OpBarrier, nil, qs, 0)
}

func (p *parser) parseMeasure() error {
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	q, err := p.parseOperand(true)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(symArrow); err != nil {
		return err
	}
	c, err := p.parseOperand(false)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	if q.count() != c.count() {
		return fmt.Errorf("qasm: line %d: measure size mismatch (%d qubits -> %d bits)", q.line, q.count(), c.count())
	}
	for k := 0; k < q.count(); k++ {
		if err := p.spend(); err != nil {
			return err
		}
		if err := p.add(circuit.Gate{Op: circuit.OpMeasure, Qubits: p.take1(q.at(k)), Cbit: c.at(k)}, 0); err != nil {
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
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	for k := 0; k < o.count(); k++ {
		if err := p.emit(circuit.OpReset, nil, p.take1(o.at(k)), 0); err != nil {
			return err
		}
	}
	return nil
}

// parseApplication handles "name(params)? operands ;" statements. The
// statement's name resolves once, to a built-in op or else a definition;
// its parameters and operands come from the lexer's buffer when the
// statement has the canonical shape, and from the token stream otherwise.
func (p *parser) parseApplication() error {
	id := p.take()
	line := id.line
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	op, builtin := circuit.OpByName(string(id.text))
	var def *gateDef
	if !builtin {
		// Errors after the arguments name the gate, so keep the name.
		p.name = append(p.name[:0], id.text...)
		def = p.defs[string(p.name)]
	}
	if !p.canonical(line) {
		if err := p.parseArguments(line); err != nil {
			return err
		}
	}
	// Expand whole-register operands: every full-register operand must
	// have the same size, and the gate is applied element-wise; indexed
	// operands stay fixed.
	bsize := -1
	for _, o := range p.ops {
		if o.index < 0 {
			if bsize >= 0 && o.size != bsize {
				return fmt.Errorf("qasm: line %d: broadcast register sizes differ (%d vs %d)", line, bsize, o.size)
			}
			bsize = o.size
		}
	}
	if !builtin && def == nil {
		return fmt.Errorf("qasm: line %d: unknown gate %q", line, p.name)
	}
	for k := 0; k < max(bsize, 1); k++ {
		qs := p.qubits.Take(len(p.ops))
		for i, o := range p.ops {
			qs[i] = o.at(k)
		}
		var err error
		if builtin {
			err = p.emit(op, p.params, qs, line)
		} else {
			err = p.expand(def, line, p.params, qs, 0)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// parseArguments parses an application's parameters and operands, through
// its semicolon, from the token stream into p.params and p.ops.
func (p *parser) parseArguments(line int) error {
	p.params = p.params[:0]
	if p.peekSymbol('(') {
		p.take()
		if !p.peekSymbol(')') {
			for {
				p.expr = p.expr[:0]
				root, err := p.parseExpr()
				if err != nil {
					return err
				}
				v, err := p.value(p.expr, 0, root, bindings{})
				if err != nil {
					return fmt.Errorf("qasm: line %d: %w", line, err)
				}
				p.params = append(p.params, v)
				if p.peekSymbol(',') {
					p.take()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(')'); err != nil {
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
		if p.peekSymbol(',') {
			p.take()
			continue
		}
		break
	}
	return p.expectSymbol(';')
}

// canonical reads an application's parameters and operands straight from
// the lexer's buffer when the rest of the statement has the one shape
// Write emits: "(num,num) reg[i],reg[j];" after the name, the parameters
// optional, numbers optionally negated, a single space before the first
// operand and nothing else between tokens. It fills p.params and p.ops as
// parseArguments would and consumes the statement through its semicolon.
// On any other shape (whitespace elsewhere, an expression, a broadcast, an
// unknown register or an index out of range, a statement that crosses a
// line or the end of the buffered bytes) it consumes nothing and reports
// false, and the token path, the reference for the language, takes the
// statement. It looks at most lexBufSize-1 bytes ahead, all that a
// stream's buffer holds after a one-byte name, also when the buffer is
// Parse's whole source. So no number or index read here is longer than
// maxToken: with the brackets, the space and "q[0];" it would not fit, and
// a longer one is left to the token path, which rejects it.
func (p *parser) canonical(line int) bool {
	l := p.lex
	b := l.buf[l.pos:min(l.end, l.pos+lexBufSize-1)]
	i := 0
	p.params = p.params[:0]
	if len(b) > 0 && b[0] == '(' {
		for {
			v, n := number(b[i+1:])
			if n == 0 {
				return false
			}
			p.params = append(p.params, v)
			i += 1 + n
			if i == len(b) || (b[i] != ',' && b[i] != ')') {
				return false
			}
			if b[i] == ')' {
				i++
				break
			}
		}
	}
	if i == len(b) || b[i] != ' ' {
		return false
	}
	p.ops = p.ops[:0]
	for {
		i++ // the space or comma before the operand
		j := i
		for j < len(b) && identPart[b[j]] {
			j++
		}
		if j == i || !identStart[b[i]] || j == len(b) || b[j] != '[' {
			return false
		}
		r := p.lookupReg(b[i:j])
		if r == nil || !r.quantum {
			return false
		}
		idx, k := 0, j+1
		for k < len(b) && isDigit(b[k]) && idx < r.size {
			idx = 10*idx + int(b[k]-'0')
			k++
		}
		if k == j+1 || k == len(b) || b[k] != ']' || idx >= r.size {
			return false
		}
		p.ops = append(p.ops, operand{offset: r.offset, size: r.size, index: idx, line: line})
		i = k + 1
		if i == len(b) || (b[i] != ',' && b[i] != ';') {
			return false
		}
		if b[i] == ';' {
			break
		}
	}
	l.pos += i + 1
	return true
}

// number reads an optionally negated numeric literal, as the lexer scans
// one, from the front of b and returns its value and length. The length is
// 0 when b does not start with one, or when its value is out of range.
func number(b []byte) (float64, int) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	start, digits := i, 0
	for ; i < len(b) && isDigit(b[i]); i++ {
		digits++
	}
	if i < len(b) && b[i] == '.' {
		for i++; i < len(b) && isDigit(b[i]); i++ {
			digits++
		}
	}
	if digits == 0 {
		return 0, 0
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j < len(b) && isDigit(b[j]) {
			for j < len(b) && isDigit(b[j]) {
				j++
			}
			i = j
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, 0
	}
	if start == 1 {
		v = -v
	}
	return v, i
}

// spend counts one unit of work, a gate emitted or a definition expanded,
// and fails once the program has cost more than workBase plus one per byte
// read through the current statement.
func (p *parser) spend() error {
	p.work++
	if limit := workBase + p.lex.offset(); p.work > limit {
		return fmt.Errorf("qasm: line %d: program applies more than %d gates (%d plus one per input byte)", p.line, limit, workBase)
	}
	return nil
}

// emit appends one built-in gate. qubits must be the gate's own slice;
// params may be scratch. line is the line a failed gate check reports.
func (p *parser) emit(op circuit.Op, params []float64, qubits []int, line int) error {
	if err := p.spend(); err != nil {
		return err
	}
	g := circuit.Gate{Op: op, Qubits: qubits}
	if len(params) > 0 {
		g.Params = p.floats.Take(len(params))
		copy(g.Params, params)
	}
	return p.add(g, line)
}

// add appends g to the circuit, reporting a failed gate check at line.
func (p *parser) add(g circuit.Gate, line int) error {
	if err := p.circ.Append(g); err != nil {
		return fmt.Errorf("qasm: line %d: %v", line, err)
	}
	return nil
}

// expand inlines one application of def on qubits, at the given depth of
// nested definitions. qubits must be the application's own slice; params
// may be scratch.
func (p *parser) expand(def *gateDef, line int, params []float64, qubits []int, depth int) error {
	if err := p.spend(); err != nil {
		return err
	}
	if len(params) != len(def.params) {
		return fmt.Errorf("qasm: line %d: gate %q expects %d params, got %d", line, def.name, len(def.params), len(params))
	}
	if len(qubits) != len(def.args) {
		return fmt.Errorf("qasm: line %d: gate %q expects %d qubits, got %d", line, def.name, len(def.args), len(qubits))
	}
	env := bindings{names: def.params, vals: params}
	for i := range def.body {
		st := &def.body[i]
		qs := p.qubits.Take(len(st.args))
		for j, an := range st.args {
			k := lastIndex(def.args, an)
			if k < 0 {
				return fmt.Errorf("qasm: gate %q: unbound argument %q", def.name, an)
			}
			qs[j] = qubits[k]
		}
		if st.barrier {
			if err := p.emit(circuit.OpBarrier, nil, qs, line); err != nil {
				return err
			}
			continue
		}
		// Push this statement's values above the caller's on the
		// parameter stack; an append that moves the stack leaves the
		// caller's view intact.
		base := len(p.params)
		lo := int32(0)
		for _, root := range st.params {
			v, err := p.value(st.expr, lo, root, env)
			if err != nil {
				return fmt.Errorf("qasm: line %d: gate %q: %w", line, def.name, err)
			}
			p.params = append(p.params, v)
			lo = root + 1
		}
		err := p.applyBody(st, line, p.params[base:], qs, depth+1)
		p.params = p.params[:base]
		if err != nil {
			return err
		}
	}
	return nil
}

// applyBody applies one body statement's gate at the given depth.
func (p *parser) applyBody(st *bodyStmt, line int, params []float64, qubits []int, depth int) error {
	if depth > maxInlineDepth {
		return fmt.Errorf("qasm: line %d: gate %q expands too deep (recursive definition?)", line, st.name)
	}
	if st.builtin {
		return p.emit(st.op, params, qubits, line)
	}
	def, ok := p.defs[st.name]
	if !ok {
		return fmt.Errorf("qasm: line %d: unknown gate %q", line, st.name)
	}
	return p.expand(def, line, params, qubits, depth)
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

// parseGateDef parses "gate name(params)? args { body }".
func (p *parser) parseGateDef() error {
	p.take() // gate
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &gateDef{name: string(id.text)}
	if p.peekSymbol('(') {
		p.take()
		if !p.peekSymbol(')') {
			for {
				id, err := p.expectIdent()
				if err != nil {
					return err
				}
				def.params = append(def.params, string(id.text))
				if p.peekSymbol(',') {
					p.take()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(')'); err != nil {
			return err
		}
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return err
		}
		def.args = append(def.args, string(id.text))
		if p.peekSymbol(',') {
			p.take()
			continue
		}
		break
	}
	if err := p.expectSymbol('{'); err != nil {
		return err
	}
	for !p.peekSymbol('}') {
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
	st.op, st.builtin = circuit.OpByName(st.name)
	p.expr = p.expr[:0]
	if st.name == "barrier" {
		st.barrier = true
	} else if p.peekSymbol('(') {
		p.take()
		if !p.peekSymbol(')') {
			for {
				root, err := p.parseExpr()
				if err != nil {
					return bodyStmt{}, err
				}
				st.params = append(st.params, root)
				if p.peekSymbol(',') {
					p.take()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(')'); err != nil {
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
		if p.peekSymbol(',') {
			p.take()
			continue
		}
		break
	}
	if err := p.expectSymbol(';'); err != nil {
		return bodyStmt{}, err
	}
	return st, nil
}
