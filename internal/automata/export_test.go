package automata

// DenseBitsLimit exposes the bitset/set switch of the dense inclusion
// walk to the external tests that build products on either side of it.
const DenseBitsLimit = denseBitsLimit
