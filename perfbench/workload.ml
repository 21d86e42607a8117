(* The benchmark's workloads.  Each is a closed loop: one concurrent test
   starts when the previous one finishes.  A run of a workload prepares
   [units] independent campaigns, whose pipeline seeds derive from the
   workload seed, so one run averages over many corpora instead of
   resting on one: per-trial cost differs threefold between corpora.
   Every test runs the pipeline's default 16 trials. *)

type t = {
  name : string;
  fuzz_iters : int;
  methods : Core.Select.method_ list;
  budget : int;  (* concurrent tests per method *)
  units : int;  (* independent campaigns per run *)
  domains : int;  (* 1 = Pipeline.run_method, else Parallel.run_method *)
  durable : bool;  (* journal every test and write provenance *)
}

let strategy s = Core.Select.Strategy s

(* The nine PMC-derived methods: the eight Table 1 strategies and
   Random S-INS-PAIR. *)
let pmc_methods =
  List.map strategy Core.Cluster.all
  @ [ Core.Select.Random_order Core.Cluster.S_INS_PAIR ]

let hinted =
  {
    name = "hinted";
    fuzz_iters = 600;
    methods = pmc_methods;
    budget = 1;
    units = 64;
    domains = 1;
    durable = false;
  }

let all =
  [
    hinted;
    {
      hinted with
      name = "unhinted";
      methods = [ Core.Select.Random_pairing; Core.Select.Duplicate_pairing ];
      budget = 16;
    };
    {
      hinted with
      name = "prepare";
      fuzz_iters = 4000;
      methods = [ strategy Core.Cluster.S_INS_PAIR ];
      budget = 4;
      units = 32;
    };
    (* Runnable by hand but not in BENCHMARK.json: two domains on a
       shared two-vCPU host swing 18% between identical runs.  Traced
       runs of every workload make one pass of this shape, so the
       parallel layers are still measured. *)
    { hinted with name = "parallel"; budget = 4; units = 32; domains = 2; durable = true };
  ]

(* A workload at the self-test's size: one small unit, one test per
   method. *)
let tiny w = { w with name = w.name ^ "-tiny"; fuzz_iters = 200; budget = 1; units = 1 }

let find name =
  List.find_opt (fun w -> w.name = name) (all @ List.map tiny all)

(* Workload seeds fold onto [corpus_sets] sets of units.  Every set of
   the workloads in BENCHMARK.json has a recorded reference
   (references.json), so a run of them at any seed is checked against
   the findings recorded for its inputs. *)
let corpus_sets = 64

let corpus_set seed = ((seed mod corpus_sets) + corpus_sets) mod corpus_sets

(* Pipeline seed of candidate unit [j] of a run with workload seed
   [seed]; distinct for distinct (corpus set, j) while j < 4096. *)
let unit_seed ~seed j = (corpus_set seed * 4096) + j

let config w ~seed j =
  {
    Harness.Pipeline.default with
    Harness.Pipeline.seed = unit_seed ~seed j;
    fuzz_iters = w.fuzz_iters;
    jobs = w.domains;
  }
