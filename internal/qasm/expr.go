package qasm

import (
	"fmt"
	"math"
	"strconv"
)

// expr is a parameter expression (e.g. "pi/4", "-3*theta/2") as a flat
// node slice: children are appended before their parent and addressed by
// index, so a parameter's root is its last node. A top-level parameter
// parses into the parser's reused scratch and is evaluated at once; a gate
// body keeps its statements' expressions and evaluates them against each
// application's parameter bindings.
type expr []exprNode

// exprNode is one node of an expression.
type exprNode struct {
	op   byte    // exprNum, exprVar, exprCall, exprNeg or a binary operator
	num  float64 // exprNum value
	name string  // exprVar parameter or exprCall function name
	x, y int32   // operands: x alone for exprNeg and exprCall
}

// Node kinds besides the binary operators '+', '-', '*', '/' and '^'.
const (
	exprNum  = 'n'
	exprVar  = 'v'
	exprCall = 'c'
	exprNeg  = '~'
)

// bindings maps a gate definition's formal parameters to the values of
// one application. A name bound twice resolves to its last binding.
type bindings struct {
	names []string
	vals  []float64
}

func (b bindings) lookup(name string) (float64, bool) {
	for i := len(b.names) - 1; i >= 0; i-- {
		if b.names[i] == name {
			return b.vals[i], true
		}
	}
	return 0, false
}

// value evaluates the expression in e[lo:root+1], one parameter's nodes,
// and rejects a non-finite result: the text form has no literal for ±Inf
// or NaN, so a program whose parameter overflows could not be written back
// out. Operands precede their node, so one forward pass computes every
// node from values already computed, with no recursion, and meets the
// nodes, and so the errors, in the order a depth-first walk would.
func (p *parser) value(e expr, lo, root int32, env bindings) (float64, error) {
	if n := int(root) + 1; len(p.vals) < n {
		p.vals = make([]float64, max(n, 2*len(p.vals)))
	}
	vals := p.vals
	for i := lo; i <= root; i++ {
		n := &e[i]
		var v float64
		switch n.op {
		case exprNum:
			v = n.num
		case exprVar:
			var ok bool
			if v, ok = env.lookup(n.name); !ok {
				return 0, fmt.Errorf("unbound parameter %q", n.name)
			}
		case exprNeg:
			v = -vals[n.x]
		case exprCall:
			var err error
			if v, err = call(n.name, vals[n.x]); err != nil {
				return 0, err
			}
		case '+':
			v = vals[n.x] + vals[n.y]
		case '-':
			v = vals[n.x] - vals[n.y]
		case '*':
			v = vals[n.x] * vals[n.y]
		case '/':
			if vals[n.y] == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v = vals[n.x] / vals[n.y]
		default: // '^'
			v = math.Pow(vals[n.x], vals[n.y])
		}
		vals[i] = v
	}
	if v := vals[root]; math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("parameter evaluates to %v", v)
	}
	return vals[root], nil
}

// call applies the named built-in function.
func call(fn string, x float64) (float64, error) {
	switch fn {
	case "sin":
		return math.Sin(x), nil
	case "cos":
		return math.Cos(x), nil
	case "tan":
		return math.Tan(x), nil
	case "exp":
		return math.Exp(x), nil
	case "ln":
		if x <= 0 {
			return 0, fmt.Errorf("ln of non-positive value")
		}
		return math.Log(x), nil
	default: // "sqrt"
		if x < 0 {
			return 0, fmt.Errorf("sqrt of negative value")
		}
		return math.Sqrt(x), nil
	}
}

// function returns the built-in function a name denotes, as a constant
// string, and whether it denotes one.
func function(name []byte) (string, bool) {
	switch string(name) {
	case "sin":
		return "sin", true
	case "cos":
		return "cos", true
	case "tan":
		return "tan", true
	case "exp":
		return "exp", true
	case "ln":
		return "ln", true
	case "sqrt":
		return "sqrt", true
	}
	return "", false
}

// node appends n to the expression scratch and returns its index.
func (p *parser) node(n exprNode) int32 {
	p.expr = append(p.expr, n)
	return int32(len(p.expr) - 1)
}

// parseExpr parses an expression into p.expr with standard precedence:
// unary +/- < ^ (right assoc) < * / < + -, and returns its root.
func (p *parser) parseExpr() (int32, error) {
	return p.parseAdditive()
}

func (p *parser) parseAdditive() (int32, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return 0, err
	}
	for p.peekSymbol('+') || p.peekSymbol('-') {
		op := p.take().sym
		r, err := p.parseMultiplicative()
		if err != nil {
			return 0, err
		}
		l = p.node(exprNode{op: op, x: l, y: r})
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (int32, error) {
	l, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for p.peekSymbol('*') || p.peekSymbol('/') {
		op := p.take().sym
		r, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		l = p.node(exprNode{op: op, x: l, y: r})
	}
	return l, nil
}

// parseUnary binds looser than ^ so that -2^2 == -(2^2), matching the
// usual mathematical convention. Unary plus is the identity and adds no
// node. Every level of nesting (a sign, an exponent, parentheses or a
// function call) passes through here, so this is where the depth is
// capped.
func (p *parser) parseUnary() (int32, error) {
	if p.depth == maxExprDepth {
		return 0, fmt.Errorf("qasm: line %d: expression nested deeper than %d levels", p.peek().line, maxExprDepth)
	}
	p.depth++
	var x int32
	var err error
	if p.peekSymbol('-') || p.peekSymbol('+') {
		neg := p.take().sym == '-'
		if x, err = p.parseUnary(); err == nil && neg {
			x = p.node(exprNode{op: exprNeg, x: x})
		}
	} else {
		x, err = p.parsePower()
	}
	p.depth--
	return x, err
}

func (p *parser) parsePower() (int32, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return 0, err
	}
	if p.peekSymbol('^') {
		p.take()
		// Right associative; the exponent may carry its own unary sign.
		r, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		return p.node(exprNode{op: '^', x: l, y: r}), nil
	}
	return l, nil
}

func (p *parser) parsePrimary() (int32, error) {
	t := p.take()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(string(t.text), 64)
		if err != nil {
			return 0, fmt.Errorf("qasm: line %d: bad number %q", t.line, t.text)
		}
		return p.node(exprNode{op: exprNum, num: v}), nil
	case t.kind == tokIdent && string(t.text) == "pi":
		return p.node(exprNode{op: exprNum, num: math.Pi}), nil
	case t.kind == tokIdent:
		fn, ok := function(t.text)
		if !ok {
			return p.node(exprNode{op: exprVar, name: string(t.text)}), nil
		}
		if err := p.expectSymbol('('); err != nil {
			return 0, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		if err := p.expectSymbol(')'); err != nil {
			return 0, err
		}
		return p.node(exprNode{op: exprCall, name: fn, x: x}), nil
	case t.sym == '(':
		x, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		if err := p.expectSymbol(')'); err != nil {
			return 0, err
		}
		return x, nil
	}
	return 0, fmt.Errorf("qasm: line %d: unexpected token %s in expression", t.line, *t)
}
