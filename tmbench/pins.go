package main

// pin is the deterministic work of one check: TM states, specification
// states and product pairs constructed, states expanded by the liveness
// search, and states seeded from a snapshot. Every field is a function
// of the instance alone (on-the-fly safety counts only on passing
// checks: a failing search at two or more workers stops at a
// barrier-dependent point), so a changed pin means the program now
// explores a different system. Regenerate with --pins after a change
// that is meant to alter them, and say so in the change.
type pin struct{ TM, Spec, Pairs, Expanded, Resumed int }

func pinKey(v verdict) string { return v.key() + "/" + v.Engine }

// pinOf selects the counts of v that are deterministic.
func pinOf(v verdict) pin {
	if v.Engine == "onthefly" && (v.Prop == "ss" || v.Prop == "op") && !v.Holds {
		return pin{}
	}
	return pin{TM: v.TMStates, Spec: v.SpecStates, Pairs: v.Pairs, Expanded: v.Expanded}
}

// pins holds the counts of every check the workloads run, by pinKey.
var pins = map[string]pin{
	"2pl:livelock@2,1/materialized":                {TM: 17, Expanded: 5},
	"2pl:livelock@2,1/onthefly":                    {TM: 10, Expanded: 5},
	"2pl:livelock@3,2/materialized":                {TM: 1184, Expanded: 13},
	"2pl:livelock@3,2/onthefly":                    {TM: 55, Expanded: 13},
	"2pl:obstruction@2,1/materialized":             {TM: 17, Expanded: 5},
	"2pl:obstruction@2,1/onthefly":                 {TM: 10, Expanded: 5},
	"2pl:obstruction@3,2/materialized":             {TM: 1184, Expanded: 13},
	"2pl:obstruction@3,2/onthefly":                 {TM: 55, Expanded: 13},
	"2pl:op@2,1/materialized":                      {TM: 17, Spec: 40, Pairs: 17},
	"2pl:op@2,1/onthefly":                          {TM: 17, Spec: 8, Pairs: 17},
	"2pl:op@2,2/materialized":                      {TM: 240, Spec: 2208, Pairs: 240},
	"2pl:op@2,2/onthefly":                          {TM: 240, Spec: 64, Pairs: 240},
	"2pl:ss@2,1/materialized":                      {TM: 17, Spec: 66, Pairs: 17},
	"2pl:ss@2,1/onthefly":                          {TM: 17, Spec: 8, Pairs: 17},
	"2pl:ss@2,2/materialized":                      {TM: 240, Spec: 5614, Pairs: 240},
	"2pl:ss@2,2/onthefly":                          {TM: 240, Spec: 64, Pairs: 240},
	"2pl:wait@2,1/materialized":                    {TM: 17, Expanded: 5},
	"2pl:wait@2,1/onthefly":                        {TM: 10, Expanded: 5},
	"2pl:wait@3,2/materialized":                    {TM: 1184, Expanded: 13},
	"2pl:wait@3,2/onthefly":                        {TM: 55, Expanded: 13},
	"dstm+aggressive:livelock@2,1/materialized":    {TM: 192, Expanded: 23},
	"dstm+aggressive:livelock@2,1/onthefly":        {TM: 49, Expanded: 23},
	"dstm+aggressive:livelock@3,2/materialized":    {TM: 102512, Expanded: 124},
	"dstm+aggressive:livelock@3,2/onthefly":        {TM: 604, Expanded: 124},
	"dstm+aggressive:obstruction@2,1/materialized": {TM: 192, Expanded: 192},
	"dstm+aggressive:obstruction@2,1/onthefly":     {TM: 192, Expanded: 192},
	"dstm+aggressive:obstruction@3,2/materialized": {TM: 102512, Expanded: 102512},
	"dstm+aggressive:obstruction@3,2/onthefly":     {TM: 102512, Expanded: 102512},
	"dstm+aggressive:wait@2,1/materialized":        {TM: 192, Expanded: 23},
	"dstm+aggressive:wait@2,1/onthefly":            {TM: 49, Expanded: 23},
	"dstm+aggressive:wait@3,2/materialized":        {TM: 102512, Expanded: 124},
	"dstm+aggressive:wait@3,2/onthefly":            {TM: 604, Expanded: 124},
	"dstm:op@2,1/materialized":                     {TM: 192, Spec: 40, Pairs: 344},
	"dstm:op@2,1/onthefly":                         {TM: 192, Spec: 40, Pairs: 344},
	"dstm:op@2,2/materialized":                     {TM: 2864, Spec: 2208, Pairs: 26508},
	"dstm:op@2,2/onthefly":                         {TM: 2864, Spec: 2208, Pairs: 26508},
	"dstm:op@2,3/onthefly":                         {TM: 42130, Spec: 117376, Pairs: 1968256},
	"dstm:ss@2,1/materialized":                     {TM: 192, Spec: 66, Pairs: 354},
	"dstm:ss@2,1/onthefly":                         {TM: 192, Spec: 46, Pairs: 354},
	"dstm:ss@2,2/materialized":                     {TM: 2864, Spec: 5614, Pairs: 37080},
	"dstm:ss@2,2/onthefly":                         {TM: 2864, Spec: 3806, Pairs: 37080},
	"etl:op@2,2/materialized":                      {TM: 18798, Spec: 2208, Pairs: 29782},
	"etl:op@2,2/onthefly":                          {TM: 18798, Spec: 1864, Pairs: 29782},
	"etl:ss@2,2/materialized":                      {TM: 18798, Spec: 5614, Pairs: 37618},
	"etl:ss@2,2/onthefly":                          {TM: 18798, Spec: 2798, Pairs: 37618},
	"modtl2+polite:op@2,2/materialized":            {TM: 18312, Spec: 2208, Pairs: 13460},
	"modtl2+polite:op@2,2/onthefly":                {},
	"modtl2+polite:ss@2,2/materialized":            {TM: 18312, Spec: 5614, Pairs: 16748},
	"modtl2+polite:ss@2,2/onthefly":                {},
	"modtl2+polite:ss@2,3/onthefly":                {},
	"norec:op@2,2/materialized":                    {TM: 6256, Spec: 2208, Pairs: 12032},
	"norec:op@2,2/onthefly":                        {TM: 6256, Spec: 2208, Pairs: 12032},
	"norec:ss@2,2/materialized":                    {TM: 6256, Spec: 5614, Pairs: 20132},
	"norec:ss@2,2/onthefly":                        {TM: 6256, Spec: 3830, Pairs: 20132},
	"seq:livelock@2,1/materialized":                {TM: 3, Expanded: 3},
	"seq:livelock@2,1/onthefly":                    {TM: 3, Expanded: 3},
	"seq:livelock@3,2/materialized":                {TM: 4, Expanded: 4},
	"seq:livelock@3,2/onthefly":                    {TM: 4, Expanded: 4},
	"seq:obstruction@2,1/materialized":             {TM: 3, Expanded: 3},
	"seq:obstruction@2,1/onthefly":                 {TM: 3, Expanded: 3},
	"seq:obstruction@3,2/materialized":             {TM: 4, Expanded: 4},
	"seq:obstruction@3,2/onthefly":                 {TM: 4, Expanded: 4},
	"seq:op@2,1/materialized":                      {TM: 3, Spec: 40, Pairs: 7},
	"seq:op@2,1/onthefly":                          {TM: 3, Spec: 7, Pairs: 7},
	"seq:op@2,2/materialized":                      {TM: 3, Spec: 2208, Pairs: 31},
	"seq:op@2,2/onthefly":                          {TM: 3, Spec: 31, Pairs: 31},
	"seq:ss@2,1/materialized":                      {TM: 3, Spec: 66, Pairs: 7},
	"seq:ss@2,1/onthefly":                          {TM: 3, Spec: 7, Pairs: 7},
	"seq:ss@2,2/materialized":                      {TM: 3, Spec: 5614, Pairs: 31},
	"seq:ss@2,2/onthefly":                          {TM: 3, Spec: 31, Pairs: 31},
	"seq:wait@2,1/materialized":                    {TM: 3, Expanded: 3},
	"seq:wait@2,1/onthefly":                        {TM: 3, Expanded: 3},
	"seq:wait@3,2/materialized":                    {TM: 4, Expanded: 4},
	"seq:wait@3,2/onthefly":                        {TM: 4, Expanded: 4},
	"tl2+polite:livelock@2,1/materialized":         {TM: 200, Expanded: 22},
	"tl2+polite:livelock@2,1/onthefly":             {TM: 44, Expanded: 22},
	"tl2+polite:livelock@3,2/materialized":         {TM: 1470128, Expanded: 121},
	"tl2+polite:livelock@3,2/onthefly":             {TM: 585, Expanded: 121},
	"tl2+polite:obstruction@2,1/materialized":      {TM: 200, Expanded: 22},
	"tl2+polite:obstruction@2,1/onthefly":          {TM: 44, Expanded: 22},
	"tl2+polite:obstruction@3,2/materialized":      {TM: 1470128, Expanded: 121},
	"tl2+polite:obstruction@3,2/onthefly":          {TM: 585, Expanded: 121},
	"tl2+polite:wait@2,1/materialized":             {TM: 200, Expanded: 22},
	"tl2+polite:wait@2,1/onthefly":                 {TM: 44, Expanded: 22},
	"tl2+polite:wait@3,2/materialized":             {TM: 1470128, Expanded: 121},
	"tl2+polite:wait@3,2/onthefly":                 {TM: 585, Expanded: 121},
	"tl2:op@2,2/materialized":                      {TM: 19104, Spec: 2208, Pairs: 37784},
	"tl2:op@2,2/materialized/resume":               {Resumed: 19104},
	"tl2:op@2,2/onthefly":                          {TM: 19104, Spec: 2208, Pairs: 37784},
	"tl2:op@2,3/materialized":                      {TM: 1318508, Spec: 117376, Pairs: 4939808},
	"tl2:ss@2,2/materialized":                      {TM: 19104, Spec: 5614, Pairs: 61070},
	"tl2:ss@2,2/onthefly":                          {TM: 19104, Spec: 3830, Pairs: 61070},
}

// layerPins holds the deterministic per-layer totals of each traced
// run, by workload/metric.
var layerPins = map[string]int{
	"liveness-32/automata.pairs":       1234,
	"liveness-32/explore.states":       1574240,
	"liveness-32/liveness.expanded":    103502,
	"liveness-32/safety.otf_pairs":     1234,
	"liveness-32/snap.resumed_states":  412,
	"liveness-32/spec.states":          424,
	"safety-mat/automata.pairs":        5326192,
	"safety-mat/explore.states":        1440077,
	"safety-mat/liveness.expanded":     411,
	"safety-mat/safety.otf_pairs":      162984,
	"safety-mat/snap.resumed_states":   40523,
	"safety-mat/spec.states":           195596,
	"safety-otf/automata.pairs":        292214,
	"safety-otf/explore.states":        65334,
	"safety-otf/liveness.expanded":     531,
	"safety-otf/safety.otf_pairs":      2492268,
	"safety-otf/snap.resumed_states":   65334,
	"safety-otf/spec.states":           546104,
	"service-snap/automata.pairs":      100250,
	"service-snap/explore.states":      19488,
	"service-snap/liveness.expanded":   427,
	"service-snap/safety.otf_pairs":    100250,
	"service-snap/snap.resumed_states": 19488,
	"service-snap/spec.states":         8034,
}
