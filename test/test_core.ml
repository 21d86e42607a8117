(* Unit and property tests for the PMC core: PMC construction, profiles
   with double-fetch leaders, Algorithm 1 identification, the Table 1
   clustering strategies and the selection/ordering logic. *)

module Trace = Vmm.Trace
module Layout = Vmm.Layout
module Pmc = Core.Pmc
module Profile = Core.Profile
module Identify = Core.Identify
module Cluster = Core.Cluster
module Select = Core.Select

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sp0 = Layout.stack_top 0 - 64

let acc ?(thread = 0) ?(pc = 0) ?(kind = Trace.Read) ?(atomic = false)
    ?(sp = sp0) ~addr ~size ~value () =
  { Trace.thread; pc; addr; size; kind; value; atomic; sp }

let side ~ins ~addr ~size ~value = { Pmc.ins; addr; size; value }

(* ---------------- PMC ---------------- *)

let test_values_differ () =
  let w = side ~ins:1 ~addr:0x100 ~size:8 ~value:0xaabbccdd in
  let r_same = side ~ins:2 ~addr:0x100 ~size:8 ~value:0xaabbccdd in
  let r_diff = side ~ins:2 ~addr:0x100 ~size:8 ~value:0xaabbccde in
  checkb "equal values are not a PMC" false (Pmc.values_differ w r_same);
  checkb "different values are" true (Pmc.values_differ w r_diff);
  (* overlap projection: the read covers only the top 4 bytes, which agree *)
  let r_top = side ~ins:2 ~addr:0x104 ~size:4 ~value:0 in
  let w_top = side ~ins:1 ~addr:0x100 ~size:8 ~value:0xaabbccdd in
  checkb "projected equality filters" false (Pmc.values_differ w_top r_top);
  let r_low = side ~ins:2 ~addr:0x100 ~size:1 ~value:0xdd in
  checkb "projected low byte equal" false (Pmc.values_differ w r_low);
  let r_low' = side ~ins:2 ~addr:0x100 ~size:1 ~value:0x00 in
  checkb "projected low byte differs" true (Pmc.values_differ w r_low')

let test_matches () =
  let pmc =
    Pmc.make
      ~write:(side ~ins:10 ~addr:0x100 ~size:8 ~value:5)
      ~read:(side ~ins:20 ~addr:0x104 ~size:4 ~value:0)
      ~df_leader:false
  in
  let w_live = acc ~pc:10 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:999 () in
  checkb "write matches ignoring value" true (Pmc.matches_write pmc w_live);
  let w_wrong_pc = acc ~pc:11 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:5 () in
  checkb "wrong pc does not match" false (Pmc.matches_write pmc w_wrong_pc);
  let w_disjoint = acc ~pc:10 ~kind:Trace.Write ~addr:0x200 ~size:8 ~value:5 () in
  checkb "disjoint range does not match" false (Pmc.matches_write pmc w_disjoint);
  let r_live = acc ~pc:20 ~kind:Trace.Read ~addr:0x104 ~size:4 ~value:7 () in
  checkb "read matches" true (Pmc.matches_read pmc r_live);
  checkb "read does not match write side" false (Pmc.matches_write pmc r_live)

(* ---------------- Profile / df_leader ---------------- *)

let test_df_leader () =
  (* two reads of the same range by different instructions, same value,
     no intervening write: first read is the leader *)
  let accesses =
    [
      acc ~pc:1 ~addr:0x100 ~size:8 ~value:42 ();
      acc ~pc:2 ~addr:0x100 ~size:8 ~value:42 ();
    ]
  in
  let p = Profile.of_accesses ~test_id:0 accesses in
  checki "both reads kept" 2 (Profile.length p);
  checki "one df leader" 1 (Profile.num_df_leaders p);
  checkb "leader is the first" true p.Profile.entries.(0).Profile.df_leader;
  checkb "second is not" false p.Profile.entries.(1).Profile.df_leader

let test_df_leader_negative () =
  (* same instruction: not a double fetch *)
  let same_ins =
    [ acc ~pc:1 ~addr:0x100 ~size:8 ~value:42 (); acc ~pc:1 ~addr:0x100 ~size:8 ~value:42 () ]
  in
  checki "same instruction" 0
    (Profile.num_df_leaders (Profile.of_accesses ~test_id:0 same_ins));
  (* intervening write kills the pair *)
  let with_write =
    [
      acc ~pc:1 ~addr:0x100 ~size:8 ~value:42 ();
      acc ~pc:5 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:1 ();
      acc ~pc:2 ~addr:0x100 ~size:8 ~value:42 ();
    ]
  in
  checki "intervening write" 0
    (Profile.num_df_leaders (Profile.of_accesses ~test_id:0 with_write));
  (* different values: not a double fetch *)
  let diff_val =
    [ acc ~pc:1 ~addr:0x100 ~size:8 ~value:42 (); acc ~pc:2 ~addr:0x100 ~size:8 ~value:43 () ]
  in
  checki "different values" 0
    (Profile.num_df_leaders (Profile.of_accesses ~test_id:0 diff_val))

let test_profile_filters () =
  let accesses =
    [
      acc ~addr:0x100 ~size:8 ~value:1 ();
      acc ~addr:sp0 ~size:8 ~value:2 () (* own stack: filtered *);
      acc ~addr:Layout.user_base ~size:8 ~value:3 () (* user: filtered *);
    ]
  in
  checki "only shared kept" 1 (Profile.length (Profile.of_accesses ~test_id:0 accesses))

(* ---------------- Identify (Algorithm 1) ---------------- *)

let profile_of ~test_id accesses = Profile.of_accesses ~test_id accesses

let test_identify_basic () =
  let writer =
    profile_of ~test_id:0
      [ acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 () ]
  in
  let reader =
    profile_of ~test_id:1 [ acc ~pc:2 ~addr:0x100 ~size:8 ~value:0 () ]
  in
  let ident = Identify.run [ writer; reader ] in
  checki "one PMC" 1 (Identify.num_pmcs ident);
  Identify.iter
    (fun pmc info ->
      checki "write ins" 1 pmc.Pmc.write.Pmc.ins;
      checki "read ins" 2 pmc.Pmc.read.Pmc.ins;
      checkb "pair recorded" true (List.mem (0, 1) info.Identify.pairs))
    ident

let test_identify_value_filter () =
  let writer =
    profile_of ~test_id:0
      [ acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 () ]
  in
  let reader = profile_of ~test_id:1 [ acc ~pc:2 ~addr:0x100 ~size:8 ~value:7 () ] in
  checki "same value filtered" 0 (Identify.num_pmcs (Identify.run [ writer; reader ]))

let test_identify_overlap_partial () =
  (* byte write into the middle of an 8-byte read *)
  let writer =
    profile_of ~test_id:0
      [ acc ~pc:1 ~kind:Trace.Write ~addr:0x103 ~size:1 ~value:0xff () ]
  in
  let reader = profile_of ~test_id:1 [ acc ~pc:2 ~addr:0x100 ~size:8 ~value:0 () ] in
  checki "partial overlap found" 1 (Identify.num_pmcs (Identify.run [ writer; reader ]));
  let disjoint =
    profile_of ~test_id:2
      [ acc ~pc:3 ~kind:Trace.Write ~addr:0x108 ~size:1 ~value:0xff () ]
  in
  checki "no extra pmc for disjoint" 1
    (Identify.num_pmcs (Identify.run [ writer; reader; disjoint ]))

let test_identify_same_test_pair () =
  (* a single test that writes and reads the same location pairs with
     itself: the Duplicate input shape of Table 2 *)
  let t =
    profile_of ~test_id:5
      [
        acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:9 ();
        acc ~pc:2 ~addr:0x100 ~size:8 ~value:1 ();
      ]
  in
  let ident = Identify.run [ t ] in
  checki "self pair" 1 (Identify.num_pmcs ident);
  Identify.iter
    (fun _ info -> checkb "pair (5,5)" true (List.mem (5, 5) info.Identify.pairs))
    ident

let test_find_incidental () =
  let writer =
    profile_of ~test_id:0
      [ acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 () ]
  in
  let reader = profile_of ~test_id:1 [ acc ~pc:2 ~addr:0x100 ~size:8 ~value:0 () ] in
  let ident = Identify.run [ writer; reader ] in
  let w_live = acc ~thread:0 ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:3 () in
  let r_live = acc ~thread:1 ~pc:2 ~addr:0x100 ~size:8 ~value:3 () in
  let found =
    Identify.find_incidental ident ~writes:[ w_live ] ~reads:[ r_live ]
      ~exclude:(fun _ -> false)
  in
  checki "incidental found" 1 (List.length found);
  let none =
    Identify.find_incidental ident ~writes:[ w_live ] ~reads:[ r_live ]
      ~exclude:(fun _ -> true)
  in
  checki "exclusion works" 0 (List.length none)

(* A PMC whose write side two live writes perform is reported once per
   write, and matches come back last write first: Explore draws its
   adoption by list position, so both are part of the contract. *)
let test_find_incidental_order_and_duplicates () =
  let writer =
    profile_of ~test_id:0
      [
        acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 ();
        acc ~pc:3 ~kind:Trace.Write ~addr:0x200 ~size:8 ~value:7 ();
      ]
  in
  let reader =
    profile_of ~test_id:1
      [ acc ~pc:2 ~addr:0x100 ~size:8 ~value:0 (); acc ~pc:4 ~addr:0x200 ~size:8 ~value:0 () ]
  in
  let ident = Identify.run [ writer; reader ] in
  checki "two pmcs" 2 (Identify.num_pmcs ident);
  let w1 = acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:3 () in
  let w1' = acc ~pc:1 ~kind:Trace.Write ~addr:0x104 ~size:4 ~value:3 () in
  let w3 = acc ~pc:3 ~kind:Trace.Write ~addr:0x200 ~size:8 ~value:3 () in
  let reads =
    [ acc ~thread:1 ~pc:2 ~addr:0x100 ~size:8 ~value:3 (); acc ~thread:1 ~pc:4 ~addr:0x200 ~size:8 ~value:3 () ]
  in
  let ins l = List.map (fun (p : Pmc.t) -> p.Pmc.write.Pmc.ins) l in
  let found =
    Identify.find_incidental ident ~writes:[ w1; w1'; w3 ] ~reads
      ~exclude:(fun _ -> false)
  in
  Alcotest.(check (list int)) "one entry per write, last first" [ 3; 1; 1 ] (ins found);
  checkb "both pc-1 entries are the same pmc" true
    (match found with _ :: a :: b :: _ -> Pmc.equal a b | _ -> false);
  let excluded =
    Identify.find_incidental ident ~writes:[ w1; w1'; w3 ] ~reads
      ~exclude:(fun p -> p.Pmc.write.Pmc.ins = 3)
  in
  Alcotest.(check (list int)) "exclusion drops every copy" [ 1; 1 ] (ins excluded)

(* ---------------- incidental search vs the list-scan oracle ---------------- *)

(* Reference for [Identify.find_incidental]: a plain list scan of every
   PMC at a write's pc, [exclude] first, then every read.  The indexed
   search must return exactly this list, order and duplicates included. *)
let find_incidental_oracle (t : Identify.t) ~writes ~reads ~exclude =
  let found = ref [] in
  List.iter
    (fun (w : Trace.access) ->
      match Hashtbl.find_opt t.Identify.write_index w.Trace.pc with
      | None -> ()
      | Some pmcs ->
          List.iter
            (fun pmc ->
              if (not (exclude pmc)) && Pmc.matches_write pmc w
                 && List.exists (fun r -> Pmc.matches_read pmc r) reads
              then found := pmc :: !found)
            !pmcs)
    writes;
  !found

(* An identification indexed straight from a PMC list, so a case can put
   many PMCs, and repeats, at one write pc. *)
let ident_of_pmcs pmcs =
  let write_index = Hashtbl.create 16 in
  List.iter
    (fun (p : Pmc.t) ->
      match Hashtbl.find_opt write_index p.Pmc.write.Pmc.ins with
      | Some l -> l := p :: !l
      | None -> Hashtbl.replace write_index p.Pmc.write.Pmc.ins (ref [ p ]))
    pmcs;
  {
    Identify.table = Hashtbl.create 1;
    write_index;
    num_write_entries = 0;
    num_read_entries = 0;
  }

type incidental_case = {
  pmcs : Pmc.t list;
  writes : Trace.access list;
  reads : Trace.access list;
  excluded : Pmc.t list;
}

(* Eight pcs and a 32-byte window: PMCs crowd each write pc with
   overlapping ranges, both lists mix reads and writes, some writes
   repeat, and the excluded set is drawn from the PMCs. *)
let gen_incidental_case =
  let open QCheck.Gen in
  let gen_side =
    map
      (fun (ins, addr, size, value) ->
        side ~ins ~addr:(0x100 + addr) ~size:(1 lsl size) ~value)
      (quad (int_bound 7) (int_bound 24) (int_bound 3) (int_bound 3))
  in
  let gen_pmc =
    map3 (fun w r df -> Pmc.make ~write:w ~read:r ~df_leader:df) gen_side gen_side bool
  in
  let gen_access =
    map
      (fun (pc, addr, size, write) ->
        acc ~pc ~kind:(if write then Trace.Write else Trace.Read) ~addr:(0x100 + addr)
          ~size:(1 lsl size) ~value:0 ())
      (quad (int_bound 7) (int_bound 24) (int_bound 3) bool)
  in
  let pick l idx = List.map (fun i -> List.nth l (i mod List.length l)) idx in
  let* pmcs = list_size (int_range 0 120) gen_pmc in
  let* writes = list_size (int_range 0 30) gen_access in
  let* reads = list_size (int_range 0 30) gen_access in
  let* dup_idx = list_size (int_range 0 6) (int_bound 1000) in
  let* excl_idx = list_size (int_range 0 12) (int_bound 1000) in
  let* at = int_bound 1000 in
  let writes =
    if writes = [] then writes
    else
      (* re-insert repeats at a random position *)
      let n = at mod (List.length writes + 1) in
      List.filteri (fun i _ -> i < n) writes
      @ pick writes dup_idx
      @ List.filteri (fun i _ -> i >= n) writes
  in
  let excluded = if pmcs = [] then [] else pick pmcs excl_idx in
  return { pmcs; writes; reads; excluded }

let incidental_both c =
  let ident = ident_of_pmcs c.pmcs in
  let exclude p = List.exists (Pmc.equal p) c.excluded in
  ( Identify.find_incidental ident ~writes:c.writes ~reads:c.reads ~exclude,
    find_incidental_oracle ident ~writes:c.writes ~reads:c.reads ~exclude )

let prop_find_incidental_matches_oracle =
  QCheck.Test.make ~name:"indexed find_incidental equals list-scan oracle"
    ~count:500
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "%d pmcs, %d writes, %d reads, %d excluded"
           (List.length c.pmcs) (List.length c.writes) (List.length c.reads)
           (List.length c.excluded))
       gen_incidental_case)
    (fun c ->
      let indexed, oracle = incidental_both c in
      List.equal Pmc.equal indexed oracle)

(* The generator is not vacuous: on a fixed seed, some cases match, some
   repeat a PMC, and some exclude a PMC that would otherwise match. *)
let test_incidental_generator_coverage () =
  let rng = Random.State.make [| 12 |] in
  let cases = List.init 300 (fun _ -> gen_incidental_case rng) in
  let has_dup l =
    List.exists (fun p -> List.length (List.filter (Pmc.equal p) l) > 1) l
  in
  let results = List.map (fun c -> (c, snd (incidental_both c))) cases in
  checkb "some cases match" true (List.exists (fun (_, l) -> l <> []) results);
  checkb "some results repeat a pmc" true (List.exists (fun (_, l) -> has_dup l) results);
  checkb "some exclusions bite" true
    (List.exists
       (fun (c, l) ->
         List.length (snd (incidental_both { c with excluded = [] })) > List.length l)
       results)

(* ---------------- Clustering (Table 1) ---------------- *)

let mk_pmc ?(wins = 1) ?(waddr = 0x100) ?(wsize = 8) ?(wval = 7) ?(rins = 2)
    ?(raddr = 0x100) ?(rsize = 8) ?(rval = 0) ?(df = false) () =
  Pmc.make
    ~write:(side ~ins:wins ~addr:waddr ~size:wsize ~value:wval)
    ~read:(side ~ins:rins ~addr:raddr ~size:rsize ~value:rval)
    ~df_leader:df

let test_strategy_keys () =
  let p = mk_pmc () in
  checki "S-FULL one key" 1 (List.length (Cluster.keys Cluster.S_FULL p));
  checki "S-INS two keys" 2 (List.length (Cluster.keys Cluster.S_INS p));
  (* S-CH ignores values: two pmcs differing only in value share a key *)
  let p' = mk_pmc ~wval:9 () in
  checkb "S-CH merges values" true
    (Cluster.keys Cluster.S_CH p = Cluster.keys Cluster.S_CH p');
  checkb "S-FULL distinguishes values" true
    (Cluster.keys Cluster.S_FULL p <> Cluster.keys Cluster.S_FULL p')

let test_strategy_filters () =
  checki "S-CH-NULL keeps zero writes" 1
    (List.length (Cluster.keys Cluster.S_CH_NULL (mk_pmc ~wval:0 ())));
  checki "S-CH-NULL drops others" 0
    (List.length (Cluster.keys Cluster.S_CH_NULL (mk_pmc ~wval:1 ())));
  checki "S-CH-DOUBLE keeps df" 1
    (List.length (Cluster.keys Cluster.S_CH_DOUBLE (mk_pmc ~df:true ())));
  checki "S-CH-DOUBLE drops non-df" 0
    (List.length (Cluster.keys Cluster.S_CH_DOUBLE (mk_pmc ())));
  checki "S-CH-UNALIGNED keeps mismatched ranges" 1
    (List.length (Cluster.keys Cluster.S_CH_UNALIGNED (mk_pmc ~raddr:0x104 ~rsize:4 ())));
  checki "S-CH-UNALIGNED drops aligned" 0
    (List.length (Cluster.keys Cluster.S_CH_UNALIGNED (mk_pmc ())))

let ident_of_pairs pairs =
  (* build an Identify.t via profiles that produce exactly these pmcs *)
  let profiles =
    List.concat
      (List.mapi
         (fun i (wins, rins, addr, wval) ->
           [
             profile_of ~test_id:(2 * i)
               [ acc ~pc:wins ~kind:Trace.Write ~addr ~size:8 ~value:wval () ];
             profile_of ~test_id:((2 * i) + 1)
               [ acc ~pc:rins ~addr ~size:8 ~value:(wval + 1) () ];
           ])
         pairs)
  in
  Identify.run profiles

let test_cluster_ordering () =
  (* one instruction pair with 3 value variants, another with 1: under
     S-INS-PAIR, the rarer cluster must be tested first *)
  let ident =
    ident_of_pairs
      [ (1, 2, 0x100, 10); (1, 2, 0x100, 20); (1, 2, 0x100, 30); (7, 8, 0x200, 5) ]
  in
  let clusters = Cluster.run Cluster.S_INS_PAIR ident in
  checki "two clusters" 2 (Cluster.num_clusters clusters);
  (match Cluster.ordered clusters with
  | (k1, l1) :: (_k2, l2) :: [] ->
      checki "rare first" 1 (List.length l1);
      (* the common channel pairs 3 write variants with 3 read variants *)
      checki "common second" 9 (List.length l2);
      checkb "rare is (7,8)" true (k1 = [ 7; 8 ])
  | _ -> Alcotest.fail "expected two clusters")

let test_select_budget_and_dedup () =
  let ident =
    ident_of_pairs
      [ (1, 2, 0x100, 10); (3, 4, 0x110, 20); (5, 6, 0x120, 30) ]
  in
  let rng = Random.State.make [| 1 |] in
  let plan =
    Select.plan (Select.Strategy Cluster.S_INS_PAIR) ident ~corpus_ids:[] rng ~max:2
  in
  checki "budget respected" 2 (List.length plan.Select.tests);
  checki "clusters counted" 3 plan.Select.num_clusters;
  List.iter
    (fun (t : Select.conc_test) -> checkb "hint present" true (t.Select.hint <> None))
    plan.Select.tests

let test_select_baselines () =
  let ident = ident_of_pairs [ (1, 2, 0x100, 10) ] in
  let rng = Random.State.make [| 2 |] in
  let plan = Select.plan Select.Random_pairing ident ~corpus_ids:[ 4; 5; 6 ] rng ~max:10 in
  checki "random pairing count" 10 (List.length plan.Select.tests);
  List.iter
    (fun (t : Select.conc_test) ->
      checkb "no hint" true (t.Select.hint = None);
      checkb "ids from corpus" true (List.mem t.Select.writer [ 4; 5; 6 ]))
    plan.Select.tests;
  let dup = Select.plan Select.Duplicate_pairing ident ~corpus_ids:[ 4; 5 ] rng ~max:5 in
  List.iter
    (fun (t : Select.conc_test) -> checki "duplicate" t.Select.writer t.Select.reader)
    dup.Select.tests

(* ---------------- qcheck properties ---------------- *)

let arb_side =
  QCheck.map
    (fun (ins, addr, size, value) ->
      side ~ins ~addr:(0x100 + addr) ~size:(1 lsl size) ~value)
    QCheck.(quad (int_bound 100) (int_bound 64) (int_bound 3) (int_bound 1000))

let arb_pmc =
  QCheck.map
    (fun (w, r, df) -> Pmc.make ~write:w ~read:r ~df_leader:df)
    QCheck.(triple arb_side arb_side bool)

(* Every strategy key of a PMC is deterministic and stable. *)
let prop_keys_deterministic =
  QCheck.Test.make ~name:"cluster keys deterministic" ~count:300 arb_pmc (fun p ->
      List.for_all
        (fun s -> Cluster.keys s p = Cluster.keys s p)
        Cluster.all)

(* S-FULL clusters are singletons up to PMC equality: same key implies
   same pmc features. *)
let prop_sfull_injective =
  QCheck.Test.make ~name:"S-FULL key injective" ~count:300
    QCheck.(pair arb_pmc arb_pmc)
    (fun (p1, p2) ->
      Cluster.keys Cluster.S_FULL p1 <> Cluster.keys Cluster.S_FULL p2
      || (p1.Pmc.write = p2.Pmc.write && p1.Pmc.read = p2.Pmc.read))

(* values_differ is symmetric in range handling: it never claims a
   difference when both sides project identically. *)
let prop_values_differ_consistent =
  QCheck.Test.make ~name:"values_differ consistent with projection" ~count:500
    QCheck.(pair arb_side arb_side)
    (fun (w, r) ->
      match Pmc.overlap_range w r with
      | None -> Pmc.values_differ w r = false
      | Some (lo, hi) ->
          Pmc.values_differ w r
          = (Pmc.project w.Pmc.value ~base:w.Pmc.addr ~lo ~hi
             <> Pmc.project r.Pmc.value ~base:r.Pmc.addr ~lo ~hi))

(* identification is order-insensitive in profile list order *)
let prop_identify_order_insensitive =
  QCheck.Test.make ~name:"identify independent of profile order" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 6) (pair (int_bound 20) (int_bound 3)))
    (fun specs ->
      let profiles =
        List.mapi
          (fun i (pc, v) ->
            profile_of ~test_id:i
              [
                acc ~pc ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:v ();
                acc ~pc:(pc + 50) ~addr:0x100 ~size:8 ~value:(v + 1) ();
              ])
          specs
      in
      Identify.num_pmcs (Identify.run profiles)
      = Identify.num_pmcs (Identify.run (List.rev profiles)))

let test_identify_entry_stats () =
  let writer =
    profile_of ~test_id:0
      [
        acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 ();
        acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 ()
        (* duplicate access dedupes into one entry *);
        acc ~pc:3 ~kind:Trace.Write ~addr:0x200 ~size:8 ~value:9 ();
      ]
  in
  let reader =
    profile_of ~test_id:1
      [ acc ~pc:2 ~addr:0x100 ~size:8 ~value:0 (); acc ~pc:4 ~addr:0x300 ~size:8 ~value:1 () ]
  in
  let ident = Identify.run [ writer; reader ] in
  checki "write entries deduped" 2 ident.Identify.num_write_entries;
  checki "read entries" 2 ident.Identify.num_read_entries

let test_identify_pairs_bounded () =
  (* more potential pairs than the storage bound: npairs counts all *)
  let profiles =
    List.init 12 (fun i ->
        profile_of ~test_id:i
          [
            (if i < 6 then acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 ()
             else acc ~pc:2 ~addr:0x100 ~size:8 ~value:0 ());
          ])
  in
  let ident = Identify.run profiles in
  Identify.iter
    (fun pmc info ->
      checkb "stored pairs bounded" true
        (List.length info.Identify.pairs <= Identify.max_pairs_per_pmc);
      checkb "npairs counts the bounded tests product" true
        (info.Identify.npairs
        = Identify.max_tests_per_entry * Identify.max_tests_per_entry);
      ignore pmc)
    ident

let test_profile_counts () =
  let p =
    profile_of ~test_id:0
      [
        acc ~pc:1 ~kind:Trace.Write ~addr:0x100 ~size:8 ~value:7 ();
        acc ~pc:2 ~addr:0x100 ~size:8 ~value:7 ();
        acc ~pc:3 ~addr:0x108 ~size:8 ~value:1 ();
      ]
  in
  checki "writes" 1 (Profile.num_writes p);
  checki "reads" 2 (Profile.num_reads p)

let test_pmc_pp_and_hash () =
  let p = mk_pmc ~df:true () in
  let s = Format.asprintf "%a" Pmc.pp p in
  checkb "pp mentions df" true (String.length s > 10 && Pmc.hash p = Pmc.hash p);
  checkb "hash differs for different pmcs" true
    (Pmc.hash p <> Pmc.hash (mk_pmc ~wins:99 ()))

let test_select_method_names () =
  checkb "names" true
    (Select.method_name (Select.Strategy Cluster.S_INS_PAIR) = "S-INS-PAIR"
    && Select.method_name (Select.Random_order Cluster.S_INS_PAIR)
       = "Random S-INS-PAIR"
    && Select.method_name Select.Random_pairing = "Random pairing"
    && Select.method_name Select.Duplicate_pairing = "Duplicate pairing");
  checki "eleven paper methods" 11 (List.length Select.all_paper_methods)

let tests =
  [
    Alcotest.test_case "identify entry stats" `Quick test_identify_entry_stats;
    Alcotest.test_case "identify pairs bounded" `Quick test_identify_pairs_bounded;
    Alcotest.test_case "profile counts" `Quick test_profile_counts;
    Alcotest.test_case "pmc pp and hash" `Quick test_pmc_pp_and_hash;
    Alcotest.test_case "method names" `Quick test_select_method_names;
    Alcotest.test_case "values_differ" `Quick test_values_differ;
    Alcotest.test_case "matches" `Quick test_matches;
    Alcotest.test_case "df leader" `Quick test_df_leader;
    Alcotest.test_case "df leader negatives" `Quick test_df_leader_negative;
    Alcotest.test_case "profile filters" `Quick test_profile_filters;
    Alcotest.test_case "identify basic" `Quick test_identify_basic;
    Alcotest.test_case "identify value filter" `Quick test_identify_value_filter;
    Alcotest.test_case "identify partial overlap" `Quick test_identify_overlap_partial;
    Alcotest.test_case "identify self pair" `Quick test_identify_same_test_pair;
    Alcotest.test_case "find incidental" `Quick test_find_incidental;
    Alcotest.test_case "find incidental order and duplicates" `Quick
      test_find_incidental_order_and_duplicates;
    Alcotest.test_case "incidental generator coverage" `Quick
      test_incidental_generator_coverage;
    Alcotest.test_case "strategy keys" `Quick test_strategy_keys;
    Alcotest.test_case "strategy filters" `Quick test_strategy_filters;
    Alcotest.test_case "cluster ordering" `Quick test_cluster_ordering;
    Alcotest.test_case "select budget/dedup" `Quick test_select_budget_and_dedup;
    Alcotest.test_case "select baselines" `Quick test_select_baselines;
    QCheck_alcotest.to_alcotest prop_keys_deterministic;
    QCheck_alcotest.to_alcotest prop_sfull_injective;
    QCheck_alcotest.to_alcotest prop_values_differ_consistent;
    QCheck_alcotest.to_alcotest prop_identify_order_insensitive;
    QCheck_alcotest.to_alcotest prop_find_incidental_matches_oracle;
  ]

let () = Alcotest.run "core" [ ("pmc", tests) ]
