package compile

// RetainGates exposes retainGates to the external tests.
const RetainGates = retainGates
