package dbgen

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"qfe/internal/cost"
	"qfe/internal/par"
	"qfe/internal/relation"
	"qfe/internal/tupleclass"
)

// CandidateSet is a subset of skyline pairs evaluated by the cost model.
type CandidateSet struct {
	Indices []int // positions in the SP slice, ascending
	Pairs   []tupleclass.Pair
	Balance float64
	Cost    float64
	Subsets int // predicted number of partition blocks
}

// evalCtx holds what Algorithm 4's cost model reads of each skyline pair,
// with pairs interned by signature. A pair's signature is everything
// evaluate reads of it: its Lemma 5.1 case masks, its replace cost for each
// query it replaces a result tuple of, its edit cost minEdit(s, d) and the
// base tables it touches. Pairs with equal signatures are interchangeable
// in the cost model, so a candidate set's score is a function of the
// multiset of its pairs' signatures, and Algorithm 4 scores each distinct
// multiset once. Feasibility is not part of the signature: it depends on
// the source classes and is checked per set of pairs.
type evalCtx struct {
	g      *Generator
	x      int
	nq     int
	words  int // query-mask words
	arityR int
	all    []uint64 // mask of every query

	// sigs holds one row of sigLen words per distinct signature (layout
	// below); sigOf[pair] is the pair's signature id.
	sigs   []uint64
	sigLen int
	sigOf  []int32

	// srcID[pair] resolves the pair's source class to its index in
	// g.srcClasses (by class hash, Equal-verified), -1 when the class has no
	// inhabitants; srcCap[class] is the inhabitant count. Feasibility checks
	// count duplicates over small index slices instead of building a map
	// keyed by Class.Key strings per candidate set.
	srcID  []int
	srcCap []int
}

// A signature row is, in words: the unchanged, add, remove and replace
// query masks (words each, the four disjoint planes a block splits along),
// then one replace cost per query (0 where the pair does not replace), the
// edit cost, and the touched tables as a bit set.
func (ctx *evalCtx) planes(row []uint64) []uint64 { return row[:4*ctx.words] }
func (ctx *evalCtx) replCost(row []uint64, q int) int {
	return int(row[4*ctx.words+q])
}
func (ctx *evalCtx) editCost(row []uint64) int    { return int(row[4*ctx.words+ctx.nq]) }
func (ctx *evalCtx) tables(row []uint64) []uint64 { return row[4*ctx.words+ctx.nq+1:] }
func (ctx *evalCtx) sig(id int32) []uint64 {
	return ctx.sigs[int(id)*ctx.sigLen : (int(id)+1)*ctx.sigLen]
}

func (g *Generator) newEvalCtx(sp []ScoredPair, x, workers int) *evalCtx {
	space := g.Space
	ctx := &evalCtx{g: g, x: x, nq: len(g.Queries), words: space.Words(), arityR: g.R.Arity()}
	ctx.all = make([]uint64, ctx.words)
	for q := 0; q < ctx.nq; q++ {
		ctx.all[q/64] |= 1 << (q % 64)
	}
	// Each predicate attribute's base table, numbered in attribute order.
	tableOf := make([]int, len(space.Parts))
	tableIDs := map[string]int{}
	for a, p := range space.Parts {
		t := g.Joined.Cols[p.Col].Table
		id, ok := tableIDs[t]
		if !ok {
			id = len(tableIDs)
			tableIDs[t] = id
		}
		tableOf[a] = id
	}
	ctx.sigLen = 4*ctx.words + ctx.nq + 1 + (len(tableIDs)+63)/64

	byHash := make(map[uint64][]int, len(g.srcClasses))
	for si := range g.srcClasses {
		h := g.srcClasses[si].Class.Hash64()
		byHash[h] = append(byHash[h], si)
	}
	ctx.srcCap = make([]int, len(g.srcClasses))
	for si := range g.srcClasses {
		ctx.srcCap[si] = len(g.srcClasses[si].Rows)
	}
	ctx.srcID = make([]int, len(sp))
	for i := range sp {
		ctx.srcID[i] = -1
		for _, si := range byHash[sp[i].Pair.Src.Hash64()] {
			if g.srcClasses[si].Class.Equal(sp[i].Pair.Src) {
				ctx.srcID[i] = si
				break
			}
		}
	}

	// Signature rows per pair. Rows are written by disjoint indexes and
	// CaseMasks only reads the space, so this parallelises trivially.
	rows := make([]uint64, len(sp)*ctx.sigLen)
	cases := make([]*tupleclass.Cases, workers)
	par.DoIndexed(len(sp), workers, func(w, pi int) {
		if cases[w] == nil {
			cases[w] = space.NewCases()
		}
		cs, p := cases[w], sp[pi].Pair
		var src []uint64
		if si := ctx.srcID[pi]; si >= 0 {
			src = g.srcMatch[si]
		} else {
			src = space.MatchMask(p.Src)
		}
		space.CaseMasks(p, src, cs)
		row := rows[pi*ctx.sigLen : (pi+1)*ctx.sigLen]
		pl, W := ctx.planes(row), ctx.words
		for w := 0; w < W; w++ {
			pl[W+w], pl[2*W+w], pl[3*W+w] = cs.Add[w], cs.Remove[w], cs.Replace[w]
			pl[w] = ctx.all[w] &^ (cs.Add[w] | cs.Remove[w] | cs.Replace[w])
		}
		for w, m := range cs.Replace {
			for ; m != 0; m &= m - 1 {
				q := 64*w + bits.TrailingZeros64(m)
				row[4*W+q] = uint64(space.ReplaceCost(p, q))
			}
		}
		row[4*W+ctx.nq] = uint64(p.EditCost)
		tbl := ctx.tables(row)
		for a := range p.Src {
			if p.Src[a] != p.Dst[a] {
				tbl[tableOf[a]/64] |= 1 << (tableOf[a] % 64)
			}
		}
	})

	// Intern serially, in pair order, so signature ids are deterministic.
	// Each new row moves to the end of the distinct rows at the front of
	// rows (its id is at most its pair's index, so it never overwrites a
	// row still to be read), and an open-addressed table of ids + 1, keyed
	// by row hash, finds equal rows.
	ctx.sigOf = make([]int32, len(sp))
	size := 16
	for size < 2*len(sp) {
		size <<= 1
	}
	table, mask := make([]int32, size), uint64(size-1)
	nsig := 0
	for pi := range sp {
		row := rows[pi*ctx.sigLen : (pi+1)*ctx.sigLen]
		slot := hashWords(row) & mask
		for ; table[slot] != 0; slot = (slot + 1) & mask {
			if id := int(table[slot] - 1); slices.Equal(rows[id*ctx.sigLen:(id+1)*ctx.sigLen], row) {
				break
			}
		}
		if table[slot] == 0 {
			copy(rows[nsig*ctx.sigLen:], row)
			nsig++
			table[slot] = int32(nsig)
		}
		ctx.sigOf[pi] = table[slot] - 1
	}
	ctx.sigs = rows[:nsig*ctx.sigLen]
	return ctx
}

// hashWords hashes a signature row: FNV-1a over its words, then mix64.
func hashWords(row []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range row {
		h = (h ^ w) * 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// elemHash spreads one pair index or signature id over 64 bits. A set's
// hash is the sum of its elements' hashes, so adding or removing one
// element updates it in O(1). Every table probed by these hashes verifies
// equality on a match, so they route through the kernel's collision mask,
// which lets tests force collisions.
func elemHash(x int) uint64 {
	return relation.CollisionTestMask(mix64(uint64(x) + 0x9e3779b97f4a7c15))
}

// evalScratch carries one worker's evaluation buffers, reused across sets,
// so scoring allocates nothing per set. Scratch contents never outlive an
// evaluate call — the cost model consumes sizes and edits by value.
type evalScratch struct {
	blocks, next []uint64
	order        []block
	sizes        []int
	resultEdits  []int
	tables       []uint64
}

// block is one result-partition block after refinement: its lowest query
// and its size.
type block struct{ rep, size int }

// evaluate scores the candidate set whose pairs have the given signatures.
// The candidates start as one block, the mask of every query; each pair
// splits every block along its four case planes (unchanged, add, remove,
// replace), dropping empty parts, so two queries end in one block exactly
// when every pair affects them the same way (Lemma 5.1). Blocks are then
// ordered by their lowest query, the order cost.Balance's float sums see.
//
// bound is the highest balance among the parents whose children have this
// signature multiset. A child passes the pruning rule only below its own
// parent's balance, so a set whose balance is not below bound has no child
// that passes, and its cost is never read: evaluate returns it as +Inf
// without pricing the blocks (at level 1, where every set is offered to the
// top-k, the bound is +Inf, and a set at +Inf balance has one block, whose
// cost is +Inf anyway).
func (ctx *evalCtx) evaluate(sigs []int32, bound float64, scr *evalScratch) (costVal, balance float64, k int) {
	balance, k = ctx.partition(sigs, scr)
	if !(balance < bound) {
		return math.Inf(1), balance, k
	}
	return ctx.price(sigs, scr), balance, k
}

// partition refines the query mask by each signature's case planes, orders
// the blocks by their lowest query into scr.order and scr.sizes, and
// returns the partition's balance and block count.
func (ctx *evalCtx) partition(sigs []int32, scr *evalScratch) (balance float64, k int) {
	W := ctx.words
	blocks := append(scr.blocks[:0], ctx.all...)
	for _, s := range sigs {
		pl := ctx.planes(ctx.sig(s))
		next := scr.next[:0]
		for off := 0; off < len(blocks); off += W {
			b := blocks[off : off+W]
			for c := 0; c < 4*W; c += W {
				start, nonzero := len(next), uint64(0)
				for w, m := range b {
					v := m & pl[c+w]
					next = append(next, v)
					nonzero |= v
				}
				if nonzero == 0 {
					next = next[:start]
				}
			}
		}
		blocks, scr.next = next, blocks
	}
	scr.blocks = blocks

	order := scr.order[:0]
	for off := 0; off < len(blocks); off += W {
		rep := -1
		size := 0
		for w, m := range blocks[off : off+W] {
			if rep < 0 && m != 0 {
				rep = 64*w + bits.TrailingZeros64(m)
			}
			size += bits.OnesCount64(m)
		}
		order = append(order, block{rep: rep, size: size})
	}
	slices.SortFunc(order, func(a, b block) int { return a.rep - b.rep })
	sizes := scr.sizes[:0]
	for _, b := range order {
		sizes = append(sizes, b.size)
	}
	scr.order, scr.sizes = order, sizes
	return cost.Balance(sizes), len(sizes)
}

// price returns the Eq. 5 cost of the partition the last partition call
// left in scr. A block's predicted minEdit(R, Rᵢ) is priced from its lowest
// query: an added or removed result tuple costs arity(R), a replaced one
// the changed attributes the query projects.
func (ctx *evalCtx) price(sigs []int32, scr *evalScratch) float64 {
	W := ctx.words
	resultEdits := scr.resultEdits[:0]
	for _, b := range scr.order {
		word, bit := b.rep/64, uint64(1)<<(b.rep%64)
		edit := 0
		for _, s := range sigs {
			row := ctx.sig(s)
			switch {
			case (row[W+word]|row[2*W+word])&bit != 0: // add / remove
				edit += ctx.arityR
			case row[3*W+word]&bit != 0: // replace
				edit += ctx.replCost(row, b.rep)
			}
		}
		resultEdits = append(resultEdits, edit)
	}
	dbEdit := 0
	tbls := scr.tables[:0]
	for _, s := range sigs {
		row := ctx.sig(s)
		dbEdit += ctx.editCost(row)
		for w, m := range ctx.tables(row) {
			if w == len(tbls) {
				tbls = append(tbls, 0)
			}
			tbls[w] |= m
		}
	}
	scr.resultEdits, scr.tables = resultEdits, tbls
	return ctx.g.Opts.Cost.Cost(cost.Inputs{
		DBEdit:            dbEdit,
		ModifiedRelations: popcount(tbls),
		ModifiedTuples:    len(sigs),
		ResultEdits:       resultEdits,
		SubsetSizes:       scr.sizes,
		X:                 ctx.x,
	})
}

func popcount(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// feasibleWith reports whether adding pair pi to the feasible set parent
// keeps the multiset of source classes within the tuples each class has.
// Only pi's class gains a demand, so one count over the parent suffices.
func (ctx *evalCtx) feasibleWith(parent []int, pi int) bool {
	id := ctx.srcID[pi]
	if id < 0 {
		return false
	}
	n := 1
	for _, i := range parent {
		if ctx.srcID[i] == id {
			n++
		}
	}
	return n <= ctx.srcCap[id]
}

// PickSubsets implements Algorithm 4 (Pick-STC-DTC-Subset) and returns
// candidate sets ranked by the configured strategy (the paper's cost model,
// or max-partitions for the §7.7 comparison): the head is the paper's Sopt;
// the tail provides fallbacks for when concretization of the optimum fails
// (side effects or integrity constraints).
//
// The search grows i-pair sets from (i−1)-pair sets, keeping only sets whose
// balance strictly improves on their parent — the paper's pruning heuristic.
// MaxFrontier additionally caps each level by balance, bounding the
// O(2^|SP|) worst case without changing behaviour on the small frontiers
// observed in practice (paper §5.4, Table 4).
//
// Each level runs as three passes (DESIGN.md §10), each timed once: list
// the level's feasible children in evaluation order, up to the remaining
// evaluation budget, resolving each to the slot of its signature multiset;
// score every slot once on the worker pool; replay the children in order,
// applying the pruning rule, the top-k ranking and the frontier cap. Level
// 2, where nearly all children are, lists none: it walks the frontier's
// positions twice (list2, replay2). Only the level boundary is a sequence
// point, because the pruning rule (step 15) needs a child's own score
// before the child may parent the next level. Scoring writes
// index-addressed slots and every order-sensitive step is serial, so the
// output is the same at every worker count, including when
// MaxSetsEvaluated truncates the search.
func (g *Generator) PickSubsets(sp []ScoredPair, x int) []CandidateSet {
	if len(sp) == 0 {
		return nil
	}
	s := newSearch(g.newEvalCtx(sp, x, g.workers), g.workers)
	defer s.release()
	best := &topK{k: maxCandidateSets, strategy: g.Opts.Strategy}
	evaluated := 0
	maxEval := g.Opts.MaxSetsEvaluated
	if maxEval <= 0 {
		maxEval = 50000
	}
	// Level 1 grows the singletons from the empty set.
	frontier := []frontierEntry{{balance: math.Inf(1)}}
	for level := 1; level <= len(sp) && len(frontier) > 0 && evaluated < maxEval; level++ {
		budget, limit := maxEval-evaluated, g.Opts.MaxFrontier
		if level == 1 {
			// Steps 1–8: every feasible singleton is scored, ranked and
			// kept, whatever the budget and the frontier cap.
			budget, limit = math.MaxInt, 0
		}
		frontier = s.grow(frontier, level, budget, limit, best)
		evaluated += s.listed
	}
	g.alg4Enum, g.alg4Score, g.alg4TopK = s.listNs, s.scoreNs, s.replayNs
	mAlg4Enumerate.ObserveDuration(s.listNs)
	mAlg4Score.ObserveDuration(s.scoreNs)
	mAlg4TopK.ObserveDuration(s.replayNs)
	return best.ranked(sp)
}

// grow runs one level's three passes, adds their times to the search's
// pass timers and returns the next frontier. Level 2 takes the walks, which
// are exact only for the frontier level 1 leaves (see list2).
func (s *search) grow(frontier []frontierEntry, level, budget, limit int, best *topK) []frontierEntry {
	t0 := time.Now()
	if level == 2 {
		s.list2(frontier, budget)
	} else {
		s.list(frontier, level, budget)
	}
	t1 := time.Now()
	s.score()
	t2 := time.Now()
	s.kept.reset(limit)
	if level == 2 {
		s.replay2(frontier, best)
	} else {
		s.replay(frontier, level, best)
	}
	next := s.nextFrontier(frontier, level)
	t3 := time.Now()
	s.listNs += t1.Sub(t0)
	s.scoreNs += t2.Sub(t1)
	s.replayNs += t3.Sub(t2)
	return next
}

// frontierEntry is one set of the current frontier: its ascending pair
// indices, its signature multiset (ascending), the two element-hash sums
// its children extend, and its balance.
type frontierEntry struct {
	indices []int
	sigs    []int32
	idxHash uint64
	sigHash uint64
	balance float64
}

// child is one candidate set: a frontier parent plus one pair, and the slot
// of its signature multiset.
type child struct{ parent, pair, slot int32 }

// search is Algorithm 4's per-call state, reused across levels. Its
// buffers grow to a round's largest level, so calls draw them from
// searchPool instead of regrowing them every round.
type search struct {
	ctx     *evalCtx
	workers int
	scratch []evalScratch // one per worker

	// inSet stamps the current parent's pairs and sigSeen the signatures
	// whose child slot the parent has resolved (into sigSlot); bumping gen
	// clears both.
	inSet   []int
	sigSeen []int
	sigSlot []int32
	gen     int
	// index is an open-addressed table of frontier positions + 1, keyed by
	// idxHash, and firstPos[pair] the first frontier position holding the
	// pair: the earliest-parent rule's lookups.
	index    []int32
	firstPos []int

	// children holds the level's listed children after list, and only the
	// children that passed the pruning rule after the replay; listed counts
	// the listed children against the evaluation budget.
	children []child
	listed   int

	// Level 2's walks read the frontier through flat arrays: per position,
	// its pair, the pair's signature and source class, and the number of
	// children the parent there lists (kids, filled by list2 for the first
	// parents positions). sigBal[sig] is the balance of the singleton of
	// that signature, and passAt/pass list, per signature p, the slots
	// {p, s} whose balance is below sigBal[p], as (s, slot).
	posPair []int32
	posSig  []int32
	posCls  []int32
	kids    []int32
	parents int
	covered []int32
	sigBal  []float64
	passAt  []int32
	pass    []passEntry

	// Slots of the current level: slotSigs holds each slot's ascending
	// signature multiset (level ids each), slotHash its element-hash sum,
	// slotTable an open-addressed table of slot ids + 1; bound is the
	// highest balance among the parents that resolve the slot, and the
	// score arrays are indexed by slot.
	level     int
	slotSigs  []int32
	slotHash  []uint64
	slotTable []int32
	bound     []float64
	cost      []float64
	balance   []float64
	subsets   []int
	sigBuf    []int32

	kept  frontierCut
	arena []int // carved index slices, never reused

	listNs, scoreNs, replayNs time.Duration
}

// passEntry is one entry of a pass list: a signature and the slot it makes
// with the list's own signature.
type passEntry struct{ sig, slot int32 }

var searchPool = sync.Pool{New: func() any { return new(search) }}

func newSearch(ctx *evalCtx, workers int) *search {
	s := searchPool.Get().(*search)
	s.ctx, s.workers = ctx, workers
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, evalScratch{})
	}
	np, nsig := len(ctx.sigOf), len(ctx.sigs)/ctx.sigLen
	s.inSet = slices.Grow(s.inSet[:0], np)[:np]
	s.firstPos = slices.Grow(s.firstPos[:0], np)[:np]
	s.sigSeen = slices.Grow(s.sigSeen[:0], nsig)[:nsig]
	s.sigSlot = slices.Grow(s.sigSlot[:0], nsig)[:nsig]
	clear(s.inSet)
	clear(s.sigSeen)
	s.gen = 0
	s.listNs, s.scoreNs, s.replayNs = 0, 0, 0
	return s
}

// release returns the search's buffers to the pool. Index slices carved
// from the arena stay with the sets that hold them.
func (s *search) release() {
	s.ctx, s.arena = nil, nil
	searchPool.Put(s)
}

// list fills s.children with the level's feasible children, in the
// evaluation order: frontier parents in order, each extended by every pair
// it lacks in index order. A child reachable from several parents belongs
// to the earliest frontier parent it contains, which is where a sweep that
// deduplicates children by a table of seen sets first meets it, so no such
// table is kept: listing (j, pi) probes the frontier index for the child's
// other maximal subsets and skips the child when one sits before j.
// Listing stops once budget children are listed.
func (s *search) list(frontier []frontierEntry, level, budget int) {
	s.children = s.children[:0]
	s.resetSlots(level)
	s.indexFrontier(frontier)
sweep:
	for j := range frontier {
		op := &frontier[j]
		s.gen++
		for _, i := range op.indices {
			s.inSet[i] = s.gen
		}
		for pi := range s.inSet {
			if s.inSet[pi] == s.gen || s.earlierParent(frontier, j, pi) || !s.ctx.feasibleWith(op.indices, pi) {
				continue
			}
			// The child's slot depends only on the parent and the added
			// pair's signature, so each parent resolves a signature once.
			sig := s.ctx.sigOf[pi]
			if s.sigSeen[sig] != s.gen {
				s.sigSeen[sig], s.sigSlot[sig] = s.gen, s.slotOf(op, sig)
			}
			s.children = append(s.children, child{parent: int32(j), pair: int32(pi), slot: s.sigSlot[sig]})
			if len(s.children) >= budget {
				break sweep
			}
		}
	}
	s.listed = len(s.children)
}

// list2 is level 2's first walk. Level 1 runs with no budget, no frontier
// cap and no pruning, so level 2's frontier is every pair whose source
// class has a row, in pair order, each at its singleton's balance. For the
// parent at position j, the earliest-parent rule rejects exactly the
// positions before j, and feasibility rejects the later positions of j's
// source class when that class has one row; the listed children of j are
// the remaining later positions, in order. list2 counts them against the
// budget into kids and resolves, for each listed parent, the slot of each
// signature its listed children carry: the slots list would resolve, from
// array reads alone.
//
// All parents of one signature have one balance, and a child's slot
// depends only on its parent's signature and its own, so a parent resolves
// nothing new after an earlier parent of its signature whose children
// include all of its own: one whose class has more than one row, or one of
// the same class. Such a parent only counts its children.
func (s *search) list2(frontier []frontierEntry, budget int) {
	s.resetSlots(2)
	n := len(frontier)
	s.posPair = slices.Grow(s.posPair[:0], n)[:n]
	s.posSig = slices.Grow(s.posSig[:0], n)[:n]
	s.posCls = slices.Grow(s.posCls[:0], n)[:n]
	s.kids = slices.Grow(s.kids[:0], n)[:n]
	nsig := len(s.sigSeen)
	s.sigBal = slices.Grow(s.sigBal[:0], nsig)[:nsig]
	// covered[sig] is the class of the last parent of sig that resolved,
	// or all once a parent whose class has more than one row resolved.
	const all = -2
	s.covered = slices.Grow(s.covered[:0], nsig)[:nsig]
	covered := s.covered
	for i := range covered {
		covered[i] = -1
	}
	for j := range frontier {
		pi := frontier[j].indices[0]
		s.posPair[j], s.posSig[j], s.posCls[j] = int32(pi), s.ctx.sigOf[pi], int32(s.ctx.srcID[pi])
		s.sigBal[s.posSig[j]] = frontier[j].balance
	}
	s.listed, s.parents = 0, 0
	for j := range frontier {
		op, sig, cls := &frontier[j], s.posSig[j], s.posCls[j]
		solo := s.ctx.srcCap[cls] < 2
		left := budget - s.listed
		kids := 0
		switch {
		case !solo && covered[sig] == all:
			kids = min(n-1-j, left)
		case solo && (covered[sig] == all || covered[sig] == cls):
			for c := j + 1; c < n && kids < left; c++ {
				if s.posCls[c] != cls {
					kids++
				}
			}
		default:
			s.gen++
			for c := j + 1; c < n && kids < left; c++ {
				if solo && s.posCls[c] == cls {
					continue
				}
				if cs := s.posSig[c]; s.sigSeen[cs] != s.gen {
					s.sigSeen[cs] = s.gen
					s.slotOf(op, cs)
				}
				kids++
			}
			if kids < left {
				covered[sig] = cls
				if !solo {
					covered[sig] = all
				}
			}
		}
		s.kids[j] = int32(kids)
		s.listed += kids
		s.parents = j + 1
		if s.listed >= budget {
			return
		}
	}
}

// replay2 is level 2's second walk. It visits the children list2 counted,
// in the same order, and keeps those that pass the pruning rule. A
// parent's passing children are those whose signature is on its
// signature's pass list, so a parent with an empty pass list is skipped
// whole.
func (s *search) replay2(frontier []frontierEntry, best *topK) {
	s.children = s.children[:0]
	s.passLists()
	stamped := int32(-1)
	for j, n := range s.kids[:s.parents] {
		sig := s.posSig[j]
		pass := s.pass[s.passAt[sig]:s.passAt[sig+1]]
		if len(pass) == 0 || n == 0 {
			continue
		}
		if sig != stamped {
			s.gen++
			for _, e := range pass {
				s.sigSeen[e.sig], s.sigSlot[e.sig] = s.gen, e.slot
			}
			stamped = sig
		}
		op, cls := &frontier[j], s.posCls[j]
		solo := s.ctx.srcCap[cls] < 2
		for c := j + 1; n > 0; c++ {
			if solo && s.posCls[c] == cls {
				continue
			}
			n--
			if cs := s.posSig[c]; s.sigSeen[cs] == s.gen {
				s.keep(best, op, child{parent: int32(j), pair: s.posPair[c], slot: s.sigSlot[cs]}, 2)
			}
		}
	}
}

// passLists buckets level 2's slots into per-signature pass lists: slot
// {a, b} is on a's list when its balance is below sigBal[a], and on b's
// when below sigBal[b]. A list may name a slot no parent of its signature
// resolved; replay2 looks a slot up only for a listed child, whose slot
// list2 resolved.
func (s *search) passLists() {
	nsig := len(s.sigBal)
	s.passAt = slices.Grow(s.passAt[:0], nsig+1)[:nsig+1]
	clear(s.passAt)
	for id := range s.slotHash {
		a, b := s.slotSigs[2*id], s.slotSigs[2*id+1]
		if s.balance[id] < s.sigBal[a] {
			s.passAt[a]++
		}
		if a != b && s.balance[id] < s.sigBal[b] {
			s.passAt[b]++
		}
	}
	// A counting sort: passAt[p] first ends p's bucket, and filling the
	// bucket from its end leaves passAt[p] at its start.
	for i := 1; i <= nsig; i++ {
		s.passAt[i] += s.passAt[i-1]
	}
	total := int(s.passAt[nsig])
	s.pass = slices.Grow(s.pass[:0], total)[:total]
	for id := range s.slotHash {
		a, b := s.slotSigs[2*id], s.slotSigs[2*id+1]
		if s.balance[id] < s.sigBal[a] {
			s.passAt[a]--
			s.pass[s.passAt[a]] = passEntry{sig: b, slot: int32(id)}
		}
		if a != b && s.balance[id] < s.sigBal[b] {
			s.passAt[b]--
			s.pass[s.passAt[b]] = passEntry{sig: a, slot: int32(id)}
		}
	}
}

// indexFrontier rebuilds the frontier index, at most half full, and
// firstPos.
func (s *search) indexFrontier(frontier []frontierEntry) {
	for i := range s.firstPos {
		s.firstPos[i] = len(frontier)
	}
	for j := len(frontier) - 1; j >= 0; j-- {
		for _, i := range frontier[j].indices {
			s.firstPos[i] = j
		}
	}
	size := 16
	for size < 2*len(frontier) {
		size <<= 1
	}
	if cap(s.index) < size {
		s.index = make([]int32, size)
	}
	s.index = s.index[:size]
	clear(s.index)
	mask := uint64(size - 1)
	for j := range frontier {
		slot := frontier[j].idxHash & mask
		for s.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.index[slot] = int32(j + 1)
	}
}

// earlierParent reports whether the child frontier[j] ∪ {pi} contains a
// frontier set listed before j. Its other maximal subsets are the parent
// with one pair c swapped for pi, so an earlier parent holds pi: none
// exists when pi first appears at or after j, and for single-pair parents
// {pi} itself is one otherwise. Larger parents probe the index; inSet marks
// the parent's pairs, so a candidate of the parent's size equals the subset
// when each of its pairs is pi or a parent pair other than c.
func (s *search) earlierParent(frontier []frontierEntry, j, pi int) bool {
	op := &frontier[j]
	if s.firstPos[pi] >= j || len(op.indices) == 1 {
		return s.firstPos[pi] < j
	}
	mask := uint64(len(s.index) - 1)
	hp := elemHash(pi)
	for _, c := range op.indices {
		h := op.idxHash - elemHash(c) + hp
		for slot := h & mask; s.index[slot] != 0; slot = (slot + 1) & mask {
			pos := int(s.index[slot] - 1)
			if pos >= j || frontier[pos].idxHash != h {
				continue
			}
			same := true
			for _, e := range frontier[pos].indices {
				if e != pi && (e == c || s.inSet[e] != s.gen) {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
	}
	return false
}

// resetSlots empties the slot table for a new level.
func (s *search) resetSlots(level int) {
	s.level = level
	s.slotSigs, s.slotHash, s.bound = s.slotSigs[:0], s.slotHash[:0], s.bound[:0]
	if s.slotTable == nil {
		s.slotTable = make([]int32, 1024)
	}
	clear(s.slotTable)
}

// slotOf returns the slot of the signature multiset of parent op plus one
// pair of signature sig, creating it when new, and raises the slot's bound
// to op's balance.
func (s *search) slotOf(op *frontierEntry, sig int32) int32 {
	h := op.sigHash + elemHash(int(sig))
	buf := s.sigBuf[:0]
	at := 0
	for at < len(op.sigs) && op.sigs[at] <= sig {
		at++
	}
	buf = append(append(append(buf, op.sigs[:at]...), sig), op.sigs[at:]...)
	s.sigBuf = buf
	mask := uint64(len(s.slotTable) - 1)
	slot := h & mask
	for ; s.slotTable[slot] != 0; slot = (slot + 1) & mask {
		id := s.slotTable[slot] - 1
		if s.slotHash[id] == h && slices.Equal(s.sigsOf(id), buf) {
			if op.balance > s.bound[id] {
				s.bound[id] = op.balance
			}
			return id
		}
	}
	id := int32(len(s.slotHash))
	s.slotHash = append(s.slotHash, h)
	s.slotSigs = append(s.slotSigs, buf...)
	s.bound = append(s.bound, op.balance)
	s.slotTable[slot] = id + 1
	if 4*len(s.slotHash) > 3*len(s.slotTable) {
		s.growSlots()
	}
	return id
}

func (s *search) sigsOf(id int32) []int32 {
	return s.slotSigs[int(id)*s.level : (int(id)+1)*s.level]
}

// growSlots doubles the slot table and reinserts every slot.
func (s *search) growSlots() {
	s.slotTable = make([]int32, 2*len(s.slotTable))
	mask := uint64(len(s.slotTable) - 1)
	for id, h := range s.slotHash {
		slot := h & mask
		for s.slotTable[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.slotTable[slot] = int32(id + 1)
	}
}

// score evaluates every slot of the level once. evaluate is a pure function
// of the slot's signatures and bound, and each worker has its own scratch
// and writes only its slots' scores.
func (s *search) score() {
	n := len(s.slotHash)
	s.cost = slices.Grow(s.cost[:0], n)[:n]
	s.balance = slices.Grow(s.balance[:0], n)[:n]
	s.subsets = slices.Grow(s.subsets[:0], n)[:n]
	par.DoIndexed(n, s.workers, func(w, id int) {
		s.cost[id], s.balance[id], s.subsets[id] = s.ctx.evaluate(s.sigsOf(int32(id)), s.bound[id], &s.scratch[w])
	})
}

// replay visits the listed children in order and keeps those that pass the
// pruning rule (step 15: a child must strictly improve on its parent's
// balance; at level 1 every singleton is kept). The kept children are a
// subsequence of the listed ones, so they are compacted in place.
func (s *search) replay(frontier []frontierEntry, level int, best *topK) {
	listed := s.children
	s.children = s.children[:0]
	for _, ch := range listed {
		op := &frontier[ch.parent]
		if level > 1 && !(s.balance[ch.slot] < op.balance) {
			continue
		}
		s.keep(best, op, ch, level)
	}
}

// keep offers a child that passed the pruning rule to the top-k and the
// frontier cut, and appends it to s.children, where the cut's listing
// positions point.
func (s *search) keep(best *topK, op *frontierEntry, ch child, level int) {
	b, c, k := s.balance[ch.slot], s.cost[ch.slot], s.subsets[ch.slot]
	if pos := best.admit(c, b, k, level); pos >= 0 {
		best.insert(pos, CandidateSet{Indices: s.childIndices(op, int(ch.pair)),
			Balance: b, Cost: c, Subsets: k})
	}
	s.kept.offer(keptChild{balance: b, seq: len(s.children)})
	s.children = append(s.children, ch)
}

// nextFrontier returns the next frontier: the kept children, cut to the
// limit lowest balances when more than limit are kept (limit 0: no cut).
func (s *search) nextFrontier(frontier []frontierEntry, level int) []frontierEntry {
	kept := s.kept.result()
	next := make([]frontierEntry, len(kept))
	sigs := make([]int32, len(kept)*level)
	for i, kc := range kept {
		ch := s.children[kc.seq]
		op := &frontier[ch.parent]
		next[i] = frontierEntry{
			indices: s.childIndices(op, int(ch.pair)),
			sigs:    sigs[i*level : (i+1)*level : (i+1)*level],
			idxHash: op.idxHash + elemHash(int(ch.pair)),
			sigHash: s.slotHash[ch.slot],
			balance: kc.balance,
		}
		copy(next[i].sigs, s.sigsOf(ch.slot))
	}
	return next
}

// childIndices returns op's indices with pi merged in, carved from the
// search's arena; carved slices are never reused, so the top-k and the
// frontier may keep them.
func (s *search) childIndices(op *frontierEntry, pi int) []int {
	n := len(op.indices) + 1
	if len(s.arena)+n > cap(s.arena) {
		s.arena = make([]int, 0, max(1024, n))
	}
	base := len(s.arena)
	at := 0
	for at < len(op.indices) && op.indices[at] < pi {
		at++
	}
	s.arena = append(append(append(s.arena, op.indices[:at]...), pi), op.indices[at:]...)
	return s.arena[base : base+n : base+n]
}

// keptChild is a child that passed the pruning rule: its balance and its
// position in the level's listing.
type keptChild struct {
	balance float64
	seq     int
}

// frontierCut selects the next frontier from the kept children, offered in
// listing order. Up to limit kept children (or all, when limit is 0) stay
// in listing order. Past that it keeps the limit lowest balances, ties to
// the earlier listed, and returns them ordered by (balance, listing): what
// a stable sort by balance followed by truncation keeps, from a bounded
// max-heap instead of every kept child.
type frontierCut struct {
	limit   int
	offered int
	items   []keptChild
}

func (f *frontierCut) reset(limit int) {
	f.limit, f.offered, f.items = limit, 0, f.items[:0]
}

// worse orders the heap: higher balance, then later listing.
func (f *frontierCut) worse(i, j int) bool {
	a, b := &f.items[i], &f.items[j]
	return a.balance > b.balance || a.balance == b.balance && a.seq > b.seq
}

func (f *frontierCut) offer(k keptChild) {
	f.offered++
	if f.limit <= 0 || len(f.items) < f.limit {
		f.items = append(f.items, k)
		return
	}
	if f.offered == f.limit+1 {
		for i := len(f.items)/2 - 1; i >= 0; i-- {
			f.down(i)
		}
	}
	// Every held child was listed before k, so k displaces the worst only
	// on a strictly lower balance.
	if k.balance < f.items[0].balance {
		f.items[0] = k
		f.down(0)
	}
}

func (f *frontierCut) down(i int) {
	for {
		w, l, r := i, 2*i+1, 2*i+2
		if l < len(f.items) && f.worse(l, w) {
			w = l
		}
		if r < len(f.items) && f.worse(r, w) {
			w = r
		}
		if w == i {
			return
		}
		f.items[i], f.items[w] = f.items[w], f.items[i]
		i = w
	}
}

func (f *frontierCut) result() []keptChild {
	if f.limit > 0 && f.offered > f.limit {
		slices.SortFunc(f.items, func(a, b keptChild) int {
			switch {
			case a.balance < b.balance:
				return -1
			case a.balance > b.balance:
				return 1
			}
			return a.seq - b.seq
		})
	}
	return f.items
}

func pairsAt(sp []ScoredPair, indices []int) []tupleclass.Pair {
	out := make([]tupleclass.Pair, len(indices))
	for i, idx := range indices {
		out[i] = sp[idx].Pair
	}
	return out
}

// topK keeps the k best candidate sets under the configured strategy:
// cost model (cost, balance, size) or max-partitions (subsets desc, cost).
// Entries are kept sorted by ordered insertion — equivalent to the legacy
// append-stable-sort-truncate, since a stable sort moves a new tail element
// exactly to the first position whose occupant ranks strictly after it —
// and a set's indices are only carved when it enters, its Pairs only
// materialised at the end.
type topK struct {
	k        int
	strategy Strategy
	sets     []CandidateSet
}

// before reports whether a set scored (cost, balance, subsets) with n pairs
// ranks strictly before y under the strategy.
func (t *topK) before(cost, balance float64, subsets, n int, y *CandidateSet) bool {
	if t.strategy == StrategyMaxPartitions {
		if subsets != y.Subsets {
			return subsets > y.Subsets
		}
	}
	if cost != y.Cost {
		return cost < y.Cost
	}
	if balance != y.Balance {
		return balance < y.Balance
	}
	return n < len(y.Indices)
}

// admit returns the position a set so scored would take, or -1 when it
// never splits or ranks at or below the current cut-off.
func (t *topK) admit(cost, balance float64, subsets, n int) int {
	if math.IsInf(cost, 1) {
		return -1 // never consider non-splitting sets
	}
	if len(t.sets) == t.k && !t.before(cost, balance, subsets, n, &t.sets[t.k-1]) {
		return -1
	}
	pos := len(t.sets)
	for pos > 0 && t.before(cost, balance, subsets, n, &t.sets[pos-1]) {
		pos--
	}
	return pos
}

// insert places c at the position admit returned, dropping the last set
// when full.
func (t *topK) insert(pos int, c CandidateSet) {
	if len(t.sets) < t.k {
		t.sets = append(t.sets, CandidateSet{})
	}
	copy(t.sets[pos+1:], t.sets[pos:])
	t.sets[pos] = c
}

// ranked returns the kept sets, best first, with their Pairs materialised.
func (t *topK) ranked(sp []ScoredPair) []CandidateSet {
	for i := range t.sets {
		t.sets[i].Pairs = pairsAt(sp, t.sets[i].Indices)
	}
	return t.sets
}
