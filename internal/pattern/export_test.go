package pattern

// OracleEnumerate exposes the reference enumeration to the external test
// package, which can import datagen (datagen imports this package).
var OracleEnumerate = oracleEnumerate

// newBitset is the oracle's bitset constructor; Enumerate carves its
// bitsets from pooled scratch instead.
func newBitset(words int) bitset { return make(bitset, words) }
