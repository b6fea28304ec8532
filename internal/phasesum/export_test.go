package phasesum

// ReferenceSummarize exposes the frozen map-based sketch to the external
// test package, which needs the simulators' real streams.
var ReferenceSummarize = refSummarize
