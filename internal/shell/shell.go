// Package shell implements the interactive intensional query processor
// behind cmd/iqp: SQL queries answered extensionally and intensionally,
// DML statements routed through the durable write path, plus
// dot-commands for induction, incremental rule maintenance, rule
// inspection, integrity checking, decision trees, checkpointing, and
// database relocation. It reads from an io.Reader and writes to an
// io.Writer so the whole loop is testable.
//
// The command list is a single table (Commands) that the .help screen
// is rendered from and that the README's command table is tested
// against, so the two cannot drift.
package shell

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/id3"
	"intensional/internal/induct"
	"intensional/internal/integrity"
	"intensional/internal/ker"
	"intensional/internal/maintain"
	"intensional/internal/rules"
	"intensional/internal/sqlparse"
)

// Shell is one interactive session.
type Shell struct {
	sys         *core.System
	model       *ker.Model // optional, enables .check
	mode        answer.Mode
	wantExt     bool // print the extensional section of answers
	wantInt     bool // print the intensional section of answers
	explain     bool // print derivation traces after each query
	explainPlan bool // print the execution plan after each query
	out         io.Writer
}

// New creates a shell over a system. model may be nil (disables .check).
func New(sys *core.System, model *ker.Model, out io.Writer) *Shell {
	return &Shell{sys: sys, model: model, mode: answer.Combined, wantExt: true, wantInt: true, out: out}
}

// Command is one row of the shell's command table — the single source
// the .help screen and the README's command documentation draw from.
type Command struct {
	Name    string // the command or input form, e.g. ".induce"
	Args    string // argument syntax, e.g. "[Nc]"
	Summary string
}

// Modes lists the five answer modes .mode accepts — the same set the
// iqpd server's POST /query accepts, in the same spelling.
func Modes() []string {
	return []string{"extensional", "intensional", "combined", "forward", "backward"}
}

// commands is the command table in help order. Keep summaries to one
// line; HelpText aligns on the name+args column.
var commands = []Command{
	{"SELECT", "...", "run a query (both answer forms; aggregates + GROUP BY supported)"},
	{"INSERT/UPDATE/DELETE", "...", "mutate the database through the write path (WAL-logged when durable)"},
	{".induce", "[Nc]", "run the Inductive Learning Subsystem (default Nc=2)"},
	{".maintain", "[Nc]", "re-induce only the schemes holding stale or refinable rules"},
	{".rules", "", "show the rule base with staleness marks"},
	{".status", "", "snapshot version, rule staleness, durability, WAL size"},
	{".schema", "", "list relations"},
	{".show", "REL", "print a relation"},
	{".hierarchies", "", "list declared type hierarchies"},
	{".hierarchy", "OBJ", "render one hierarchy chain with instance counts"},
	{".comparisons", "", "induce inter-object comparison knowledge"},
	{".check", "", "validate data against the KER schema constraints"},
	{".tree", "REL Y X...", "grow a decision tree classifying Y from X columns"},
	{".explain", "on|off|plan", "print derivation traces (on) or the execution plan (plan) after each query"},
	{".optimize", "SQL", "semantic-optimization advice for a query"},
	{".mode", "MODE", "extensional | intensional | combined | forward | backward"},
	{".checkpoint", "", "save the durable database and truncate its WAL"},
	{".save", "DIR", "save database + dictionary + rules"},
	{".quit", "", "exit"},
}

// Commands returns the command table.
func Commands() []Command { return commands }

// HelpText renders the command table as the .help screen.
func HelpText() string {
	var b strings.Builder
	for _, c := range commands {
		left := strings.TrimSpace(c.Name + " " + c.Args)
		fmt.Fprintf(&b, "  %-21s %s\n", left, c.Summary)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Run processes lines until EOF or .quit.
func (s *Shell) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	fmt.Fprint(s.out, "iqp> ")
	for sc.Scan() {
		if !s.Exec(strings.TrimSpace(sc.Text())) {
			return nil
		}
		fmt.Fprint(s.out, "iqp> ")
	}
	return sc.Err()
}

// Exec handles one line; it returns false when the session should end.
func (s *Shell) Exec(line string) bool {
	switch {
	case line == "":
	case line == ".quit" || line == ".exit":
		return false
	case line == ".help":
		fmt.Fprintln(s.out, HelpText())
	case line == ".rules":
		s.cmdRules()
	case line == ".status":
		s.cmdStatus()
	case line == ".checkpoint":
		s.cmdCheckpoint()
	case line == ".schema":
		s.cmdSchema()
	case line == ".hierarchies":
		s.cmdHierarchies()
	case strings.HasPrefix(line, ".hierarchy"):
		s.cmdHierarchy(arg(line, ".hierarchy"))
	case line == ".comparisons":
		s.cmdComparisons()
	case line == ".check":
		s.cmdCheck()
	case strings.HasPrefix(line, ".show"):
		s.cmdShow(arg(line, ".show"))
	case strings.HasPrefix(line, ".tree"):
		s.cmdTree(arg(line, ".tree"))
	case strings.HasPrefix(line, ".optimize"):
		s.cmdOptimize(arg(line, ".optimize"))
	case strings.HasPrefix(line, ".explain"):
		s.cmdExplain(arg(line, ".explain"))
	case strings.HasPrefix(line, ".mode"):
		s.cmdMode(arg(line, ".mode"))
	case strings.HasPrefix(line, ".induce"):
		s.cmdInduce(arg(line, ".induce"))
	case strings.HasPrefix(line, ".maintain"):
		s.cmdMaintain(arg(line, ".maintain"))
	case strings.HasPrefix(line, ".save"):
		s.cmdSave(arg(line, ".save"))
	case strings.HasPrefix(line, "."):
		fmt.Fprintln(s.out, "unknown command; .help lists commands")
	case sqlparse.LooksLikeDML(line):
		s.cmdMutate(line)
	default:
		s.cmdQuery(line)
	}
	return true
}

func arg(line, cmd string) string {
	return strings.TrimSpace(strings.TrimPrefix(line, cmd))
}

func (s *Shell) cmdRules() {
	full, st, _ := s.sys.RuleStatus()
	if full.Len() == 0 {
		fmt.Fprintln(s.out, "rule base empty — run .induce first")
		return
	}
	for _, r := range full.Rules() {
		fmt.Fprintf(s.out, "R%-3d %-70s (support %d)", r.ID, r.String(), r.Support)
		if inf := st.Info(r.ID); inf.Status != maintain.Valid {
			fmt.Fprintf(s.out, "  [%s", inf.Status)
			if inf.Counterexamples > 0 {
				fmt.Fprintf(s.out, ", %d counterexample(s)", inf.Counterexamples)
			}
			fmt.Fprint(s.out, "]")
		}
		fmt.Fprintln(s.out)
	}
	if stale, refinable := st.Counts(); stale > 0 || refinable > 0 {
		fmt.Fprintf(s.out, "%d stale (withheld from inference), %d refinable — run .maintain\n", stale, refinable)
	}
}

func (s *Shell) cmdStatus() {
	full, st, version := s.sys.RuleStatus()
	stale, refinable := st.Counts()
	fmt.Fprintf(s.out, "version %d: %d relations, %d rules (%d serving, %d stale, %d refinable); %d schemes awaiting .maintain\n",
		version, s.sys.Catalog().Len(), full.Len(), full.Len()-stale, stale, refinable, len(st.SchemeKeys(full)))
	if s.sys.Durable() {
		fmt.Fprintf(s.out, "durable: %d bytes in the write-ahead log\n", s.sys.WalSize())
	} else {
		fmt.Fprintln(s.out, "in-memory: no write-ahead log (open with iqp -db DIR -wal)")
	}
	if d := s.sys.Degraded(); d != nil {
		fmt.Fprintf(s.out, "DEGRADED (read-only since %s): %s — queries serve, mutations are refused; fix the disk and .checkpoint to recover\n",
			d.Since.UTC().Format(time.RFC3339), d.Reason)
	}
}

func (s *Shell) cmdCheckpoint() {
	if err := s.sys.Checkpoint(); err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprintln(s.out, "checkpointed: database saved, write-ahead log truncated")
}

// cmdMutate routes INSERT/UPDATE/DELETE through the write path: the
// statement commits (durably, when the system has a WAL) and installs a
// new snapshot whose inference set withholds any contradicted rule.
func (s *Shell) cmdMutate(sql string) {
	res, err := s.sys.Apply(context.Background(), sql)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	for _, m := range res.Mutations {
		fmt.Fprintf(s.out, "%s %s: %d inserted, %d deleted (version %d)\n",
			m.Kind, m.Table, len(m.Inserted), len(m.Deleted), res.Version)
	}
	if res.Stale > 0 {
		fmt.Fprintf(s.out, "warning: %d rule(s) now stale and withheld from inference — run .maintain\n", res.Stale)
	} else if res.Refinable > 0 {
		fmt.Fprintf(s.out, "note: %d rule(s) refinable — .maintain will tighten them\n", res.Refinable)
	}
	if res.Checkpointed {
		fmt.Fprintln(s.out, "auto-checkpoint: database saved, write-ahead log truncated")
	}
	if res.CheckpointErr != "" {
		fmt.Fprintf(s.out, "warning: batch committed, but auto-checkpoint failed: %s\n", res.CheckpointErr)
	}
}

func (s *Shell) cmdSchema() {
	for _, name := range s.sys.Catalog().Names() {
		r, err := s.sys.Catalog().Get(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(s.out, "%-12s %s  (%d tuples)\n", name, r.Schema(), r.Len())
	}
}

func (s *Shell) cmdHierarchies() {
	hs := s.sys.Dictionary().Hierarchies()
	if len(hs) == 0 {
		fmt.Fprintln(s.out, "no hierarchies declared")
		return
	}
	for _, h := range hs {
		names := make([]string, len(h.Subtypes))
		for i, sub := range h.Subtypes {
			names[i] = sub.Name
		}
		fmt.Fprintf(s.out, "%s contains %s (classified by %s)\n",
			h.Object, strings.Join(names, ", "), h.ClassifyingAttr)
	}
}

func (s *Shell) cmdHierarchy(object string) {
	if object == "" {
		fmt.Fprintln(s.out, "usage: .hierarchy OBJECT")
		return
	}
	out, err := s.sys.Dictionary().RenderTree(object)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprint(s.out, out)
}

func (s *Shell) cmdComparisons() {
	rels := s.sys.Dictionary().Relationships()
	if len(rels) == 0 {
		fmt.Fprintln(s.out, "no relationships declared")
		return
	}
	in := induct.New(s.sys.Dictionary(), induct.Options{Nc: 2})
	total := 0
	for _, r := range rels {
		cs, err := in.InduceComparisons(r)
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		for _, c := range cs {
			fmt.Fprintln(s.out, c)
			total++
		}
	}
	if total == 0 {
		fmt.Fprintln(s.out, "no inter-object comparisons hold uniformly")
	}
}

func (s *Shell) cmdCheck() {
	if s.model == nil {
		fmt.Fprintln(s.out, "no KER schema loaded; integrity checking unavailable")
		return
	}
	vs, err := integrity.Check(s.model, s.sys.Catalog())
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	if len(vs) == 0 {
		fmt.Fprintln(s.out, "database satisfies every declared constraint")
		return
	}
	for _, v := range vs {
		fmt.Fprintln(s.out, v)
	}
}

func (s *Shell) cmdShow(name string) {
	if name == "" {
		fmt.Fprintln(s.out, "usage: .show RELATION")
		return
	}
	r, err := s.sys.Catalog().Get(name)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprint(s.out, r)
}

// cmdTree grows a decision tree: ".tree RELATION CLASSCOL XCOL [XCOL...]".
func (s *Shell) cmdTree(args string) {
	fields := strings.Fields(args)
	if len(fields) < 3 {
		fmt.Fprintln(s.out, "usage: .tree RELATION CLASSCOL XCOL [XCOL...]")
		return
	}
	rel, err := s.sys.Catalog().Get(fields[0])
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	xCols := fields[2:]
	attrs := make([]rules.AttrRef, len(xCols))
	for i, c := range xCols {
		attrs[i] = rules.Attr(rel.Name(), c)
	}
	tr, err := id3.Build(rel, xCols, fields[1], attrs, rules.Attr(rel.Name(), fields[1]),
		id3.Options{MinLeaf: 1})
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprint(s.out, tr)
	acc, err := tr.Accuracy(rel, fields[1])
	if err == nil {
		fmt.Fprintf(s.out, "training accuracy %.2f, %d leaves\n", acc, tr.Leaves())
	}
}

func (s *Shell) cmdOptimize(sql string) {
	if sql == "" {
		fmt.Fprintln(s.out, "usage: .optimize SELECT ...")
		return
	}
	// The advice shown is the advice the served plan was built from.
	p, err := s.sys.Prepare(sql)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprint(s.out, p.Rewrites)
}

func (s *Shell) cmdExplain(arg string) {
	switch arg {
	case "on":
		s.explain = true
	case "plan":
		s.explainPlan = true
	case "off":
		s.explain = false
		s.explainPlan = false
	default:
		fmt.Fprintln(s.out, "usage: .explain on|off|plan")
		return
	}
	fmt.Fprintf(s.out, "explain %s\n", arg)
}

func (s *Shell) cmdMode(m string) {
	switch m {
	case "forward":
		s.mode, s.wantExt, s.wantInt = answer.ForwardOnly, true, true
	case "backward":
		s.mode, s.wantExt, s.wantInt = answer.BackwardOnly, true, true
	case "combined":
		s.mode, s.wantExt, s.wantInt = answer.Combined, true, true
	case "extensional":
		s.mode, s.wantExt, s.wantInt = answer.Combined, true, false
	case "intensional":
		s.mode, s.wantExt, s.wantInt = answer.Combined, false, true
	default:
		fmt.Fprintf(s.out, "usage: .mode %s\n", strings.Join(Modes(), "|"))
		return
	}
	fmt.Fprintf(s.out, "mode set to %s\n", m)
}

func (s *Shell) cmdInduce(ncArg string) {
	nc := 2
	if ncArg != "" {
		n, err := strconv.Atoi(ncArg)
		if err != nil {
			fmt.Fprintln(s.out, "usage: .induce [Nc]")
			return
		}
		nc = n
	}
	set, err := s.sys.Induce(induct.Options{Nc: nc})
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprintf(s.out, "induced %d rules (Nc = %d)\n", set.Len(), nc)
}

func (s *Shell) cmdMaintain(ncArg string) {
	nc := 2
	if ncArg != "" {
		n, err := strconv.Atoi(ncArg)
		if err != nil {
			fmt.Fprintln(s.out, "usage: .maintain [Nc]")
			return
		}
		nc = n
	}
	res, err := s.sys.Maintain(context.Background(), induct.Options{Nc: nc})
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	if len(res.Schemes) == 0 {
		fmt.Fprintln(s.out, "rule base already all-valid; nothing to re-induce")
		return
	}
	fmt.Fprintf(s.out, "re-induced %d scheme(s): dropped %d rule(s), added %d (version %d)\n",
		len(res.Schemes), res.Dropped, res.Added, res.Version)
}

func (s *Shell) cmdSave(dir string) {
	if dir == "" {
		fmt.Fprintln(s.out, "usage: .save DIR")
		return
	}
	if err := s.sys.Save(dir); err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprintln(s.out, "saved to", dir)
}

func (s *Shell) cmdQuery(sql string) {
	resp, err := s.sys.Query(sql, s.mode)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	if s.wantExt {
		fmt.Fprintf(s.out, "extensional answer (%d tuples):\n%s", resp.Extensional.Len(), resp.Extensional)
	}
	if s.wantInt {
		fmt.Fprintf(s.out, "intensional answer:\n  %s\n",
			strings.ReplaceAll(resp.Intensional.Text(), "\n", "\n  "))
	}
	if s.explain {
		fmt.Fprintf(s.out, "derivation:\n  %s\n",
			strings.ReplaceAll(strings.TrimRight(resp.Inference.Explain(s.sys.Rules()), "\n"), "\n", "\n  "))
	}
	if s.explainPlan {
		// The prepared-statement cache makes this free: Query above
		// already planned (and cached) this statement, so Explain
		// renders the very plan that just ran.
		pl, err := s.sys.Explain(sql)
		if err != nil {
			fmt.Fprintln(s.out, "plan error:", err)
			return
		}
		fmt.Fprintf(s.out, "plan:\n  %s\n",
			strings.ReplaceAll(strings.TrimRight(pl.String(), "\n"), "\n", "\n  "))
	}
}
