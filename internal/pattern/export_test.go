package pattern

// OracleEnumerate exposes the reference enumeration to the external test
// package, which can import datagen (datagen imports this package).
var OracleEnumerate = oracleEnumerate
