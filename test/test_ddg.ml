(* DDG / OEG construction (Algorithm 1) and graph optimizations. *)

open Kft_cuda.Ast
module D = Kft_ddg.Ddg
module G = Kft_graph.Digraph

let prog = Util.producer_consumer_program ()

let test_arrays_touched () =
  let r, w = D.arrays_touched prog (Util.launch_of prog "produce") in
  Alcotest.(check (list string)) "reads" [ "A" ] r;
  Alcotest.(check (list string)) "writes" [ "B" ] w

let test_ddg_structure () =
  let g = D.build prog in
  (* nodes: produce, consume, A, B, C *)
  Alcotest.(check int) "5 ddg nodes" 5 (G.node_count g.ddg);
  Alcotest.(check bool) "A -> produce" true (G.mem_edge g.ddg "A" "produce");
  Alcotest.(check bool) "produce -> B" true (G.mem_edge g.ddg "produce" "B");
  Alcotest.(check bool) "B -> consume" true (G.mem_edge g.ddg "B" "consume");
  Alcotest.(check bool) "consume -> C" true (G.mem_edge g.ddg "consume" "C")

let test_oeg_precedence () =
  let g = D.build prog in
  Alcotest.(check bool) "produce before consume" true (D.oeg_precedes g "produce" "consume");
  Alcotest.(check bool) "not the reverse" false (D.oeg_precedes g "consume" "produce")

let chain_prog n =
  (* k_i : X_i -> X_{i+1}, a pointwise chain *)
  let dims = (8, 4, 2) in
  let src =
    String.concat "\n"
      (List.init n (fun i ->
           Util.pointwise_src ~name:(Printf.sprintf "k%d" i)
             ~a:(Printf.sprintf "X%d" i)
             ~b:(Printf.sprintf "X%d" i)
             ~dst:(Printf.sprintf "X%d" (i + 1))))
  in
  {
    p_name = "chain";
    p_arrays = List.init (n + 1) (fun i -> Util.arr3 dims (Printf.sprintf "X%d" i));
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      List.init n (fun i ->
          Launch
            {
              l_kernel = Printf.sprintf "k%d" i;
              l_domain = (8, 4, 1);
              l_block = (8, 4, 1);
              l_args =
                Util.std_args dims
                  [ Printf.sprintf "X%d" i; Printf.sprintf "X%d" i; Printf.sprintf "X%d" (i + 1) ]
                  0.5;
            });
  }

let test_transitive_reduction () =
  let g = D.build (chain_prog 4) in
  (* the OEG of a chain is exactly the chain after reduction *)
  Alcotest.(check int) "3 edges" 3 (G.edge_count g.oeg);
  Alcotest.(check bool) "k0 still precedes k3 transitively" true (D.oeg_precedes g "k0" "k3")

let test_fusion_feasible () =
  let g = D.build (chain_prog 4) in
  Alcotest.(check bool) "adjacent pair" true (D.fusion_feasible g [ "k0"; "k1" ]);
  Alcotest.(check bool) "whole chain" true (D.fusion_feasible g [ "k0"; "k1"; "k2"; "k3" ]);
  (* skipping the middle creates a path out and back: infeasible *)
  Alcotest.(check bool) "k0+k2 infeasible" false (D.fusion_feasible g [ "k0"; "k2" ]);
  Alcotest.(check bool) "singleton trivially ok" true (D.fusion_feasible g [ "k1" ])

let test_internal_precedence () =
  let g = D.build (chain_prog 3) in
  Alcotest.(check bool) "chain pair has precedence" true
    (D.group_has_internal_precedence g [ "k0"; "k1" ]);
  let g2 = D.build prog in
  ignore g2;
  (* two kernels writing unrelated arrays have none *)
  Alcotest.(check bool) "no precedence" false (D.group_has_internal_precedence g [ "k0" ])

let multi_writer_prog () =
  let dims = (8, 4, 2) in
  let src =
    Util.pointwise_src ~name:"w1" ~a:"A" ~b:"A" ~dst:"X"
    ^ Util.pointwise_src ~name:"r1" ~a:"X" ~b:"A" ~dst:"Y"
    ^ Util.pointwise_src ~name:"w2" ~a:"B" ~b:"B" ~dst:"X"
    ^ Util.pointwise_src ~name:"r2" ~a:"X" ~b:"B" ~dst:"Z"
  in
  {
    p_name = "mw";
    p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "X"; "Y"; "Z" ];
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      List.map
        (fun (k, args) ->
          Launch
            { l_kernel = k; l_domain = (8, 4, 1); l_block = (8, 4, 1);
              l_args = Util.std_args dims args 0.5 })
        [
          ("w1", [ "A"; "A"; "X" ]);
          ("r1", [ "X"; "A"; "Y" ]);
          ("w2", [ "B"; "B"; "X" ]);
          ("r2", [ "X"; "B"; "Z" ]);
        ];
  }

let test_multi_writer_versioning () =
  let g = D.build (multi_writer_prog ()) in
  (* X is written by w1 and w2: a redundant instance is created *)
  Alcotest.(check bool) "X versioned" true (List.mem_assoc "X" g.versioned_arrays);
  Alcotest.(check bool) "X@1 node exists" true (G.mem_node g.ddg "X@1");
  (* the second reader must read the second instance *)
  Alcotest.(check bool) "r2 reads X@1" true (G.mem_edge g.ddg "X@1" "r2");
  Alcotest.(check bool) "r1 reads original X" true (G.mem_edge g.ddg "X" "r1")

let test_repeated_invocation_keys () =
  let p = chain_prog 2 in
  let p = { p with p_schedule = p.p_schedule @ [ List.hd p.p_schedule ] } in
  let g = D.build p in
  Alcotest.(check bool) "k0#2 key" true (G.mem_node g.oeg "k0#2")

let test_dot_outputs () =
  let g = D.build prog in
  let ddg_dot = D.ddg_dot g and oeg_dot = D.oeg_dot g in
  Alcotest.(check bool) "ddg dot nonempty" true (String.length ddg_dot > 50);
  Alcotest.(check bool) "oeg dot nonempty" true (String.length oeg_dot > 30);
  (* the amended-OEG reader accepts its own output *)
  let edges = D.oeg_of_amended_dot g oeg_dot in
  Alcotest.(check (list (pair string string))) "oeg edges" [ ("produce", "consume") ] edges

(* Differential tests of the reachability index against the graph
   substrate: fusion feasibility as acyclicity of the contracted OEG, and
   precedence as a DFS. *)

let oracle_feasible (g : D.t) group =
  match group with
  | [] | [ _ ] -> true
  | _ ->
      let group_of k = if List.mem k group then "__fused__" else k in
      G.is_dag (G.quotient g.oeg ~group_of)

let oracle_precedes (g : D.t) a b = a <> b && G.reachable g.oeg ~src:a ~dst:b

(* the OEG as Algorithm 1 states it: an edge for every dependent pair in
   schedule order, then each edge dropped when its head stays reachable
   without it *)
let oracle_oeg prog (g : D.t) =
  let o = G.create () in
  let touched =
    List.map (fun (i : D.invocation) -> (i.inv_key, D.arrays_touched prog i.inv_launch)) g.invocations
  in
  List.iter (fun (k, _) -> G.add_node o ~key:k ()) touched;
  let inter x y = List.exists (fun e -> List.mem e y) x in
  let rec pairs = function
    | [] -> ()
    | (a, (ra, wa)) :: rest ->
        List.iter
          (fun (b, (rb, wb)) ->
            if inter wa rb || inter ra wb || inter wa wb then G.add_edge o a b)
          rest;
        pairs rest
  in
  pairs touched;
  List.iter
    (fun (a, b) ->
      G.remove_edge o a b;
      if not (G.reachable o ~src:a ~dst:b) then G.add_edge o a b)
    (G.edges o);
  o

let keys_of (g : D.t) = Array.of_list (List.map (fun (i : D.invocation) -> i.inv_key) g.invocations)

(* [feasible, infeasible] verdict counts; fails on the first mismatch *)
let check_groups what (g : D.t) groups =
  List.fold_left
    (fun (yes, no) group ->
      let got = D.fusion_feasible g group in
      if got <> oracle_feasible g group then
        Alcotest.failf "%s: fusion_feasible [%s] = %b, quotient says %b" what
          (String.concat "; " group) got (not got);
      if got then (yes + 1, no) else (yes, no + 1))
    (0, 0) groups

let check_all_precedences what (g : D.t) =
  let keys = keys_of g in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if D.oeg_precedes g a b <> oracle_precedes g a b then
            Alcotest.failf "%s: oeg_precedes %s %s disagrees with reachability" what a b)
        keys)
    keys

(* seeded random groups of 2-6 invocations: half drawn from the whole
   schedule, half from a window of 8 neighbours, where feasible groups
   are common *)
let random_groups st keys count =
  let n = Array.length keys in
  List.init count (fun c ->
      let size = 2 + Random.State.int st 5 in
      let lo, span =
        if c mod 2 = 0 then (0, n) else
          let span = min n 8 in
          (Random.State.int st (n - span + 1), span)
      in
      List.init size (fun _ -> keys.(lo + Random.State.int st span)) |> List.sort_uniq compare)

let test_index_matches_oracle_on_apps () =
  let st = Random.State.make [| 14 |] in
  let yes, no =
    List.fold_left
      (fun (yes, no) (a : Kft_apps.Apps.app) ->
        let g = D.build a.program in
        Alcotest.(check (list (pair string string)))
          (a.app_name ^ ": OEG is the transitive reduction")
          (G.edges (oracle_oeg a.program g)) (G.edges g.oeg);
        check_all_precedences a.app_name g;
        let y, n = check_groups a.app_name g (random_groups st (keys_of g) 400) in
        (yes + y, no + n))
      (0, 0)
      (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ())
  in
  Alcotest.(check bool) "both verdicts exercised" true (yes > 100 && no > 100)

let prop_index_matches_oracle_on_fuzzed_chains =
  QCheck.Test.make ~name:"reachability index = quotient oracle on fissioned fuzzed chains"
    ~count:60 Util.fuzz_sample_arb (fun s ->
      let p = s.Util.fz_program in
      let plans =
        List.filter_map (fun k -> Option.map (fun pl -> (k.k_name, pl)) (Kft_fission.Fission.plan k))
          p.p_kernels
      in
      let p = if plans = [] then p else Kft_fission.Fission.apply_to_program ~plans p in
      (* relaunching the chain backwards adds WAR/WAW edges and "#2" keys *)
      let p = { p with p_schedule = p.p_schedule @ List.rev p.p_schedule } in
      let g = D.build p in
      check_all_precedences "fuzz" g;
      let keys = Array.to_list (keys_of g) in
      (* every subset of up to 6 invocations *)
      let rec subsets = function
        | [] -> [ [] ]
        | k :: rest ->
            let r = subsets rest in
            r @ List.filter_map (fun s -> if List.length s < 6 then Some (k :: s) else None) r
      in
      ignore (check_groups "fuzz" g (subsets keys));
      true)

(* the solution-level check as the framework used to run it: expand each
   invocation into its units, contract every group at once, test
   acyclicity *)
let oracle_groups_feasible (g : D.t) ~units_of groups =
  let u = G.create () in
  Array.iter (fun k -> List.iter (fun x -> G.ensure_node u ~key:x ()) (units_of k)) (keys_of g);
  List.iter
    (fun (a, b) ->
      List.iter (fun ua -> List.iter (fun ub -> G.add_edge u ua ub) (units_of b)) (units_of a))
    (G.edges g.oeg);
  let gid = Hashtbl.create 64 in
  List.iteri (fun i group -> List.iter (fun x -> Hashtbl.replace gid x (Printf.sprintf "g%d" i)) group) groups;
  let group_of k = match Hashtbl.find_opt gid k with Some x -> x | None -> "solo:" ^ k in
  G.is_dag (G.quotient u ~group_of)

(* a random solution: about a fifth of the invocations split into 2-3
   parts, then 1-4 groups of 2-4 units, each drawn from a window of 10
   units (groups may overlap; now and then one names an unknown unit) *)
let random_solution st keys =
  let parts = Hashtbl.create 16 in
  Array.iter
    (fun k ->
      if Random.State.int st 5 = 0 then
        Hashtbl.replace parts k (List.init (2 + Random.State.int st 2) (Printf.sprintf "%s__f%d" k)))
    keys;
  let units_of k = Option.value ~default:[ k ] (Hashtbl.find_opt parts k) in
  let units = Array.of_list (List.concat_map units_of (Array.to_list keys)) in
  let nu = Array.length units in
  let span = min nu 10 in
  let group () =
    let lo = Random.State.int st (nu - span + 1) in
    List.init (2 + Random.State.int st 3) (fun _ -> units.(lo + Random.State.int st span))
    |> List.sort_uniq compare
  in
  let groups = List.init (1 + Random.State.int st 4) (fun _ -> group ()) in
  let groups = if Random.State.int st 10 = 0 then [ "nope"; units.(0) ] :: groups else groups in
  (units_of, groups)

let test_groups_feasible_matches_oracle () =
  let st = Random.State.make [| 1414 |] in
  let yes = ref 0 and no = ref 0 in
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      let g = D.build a.program in
      for _ = 1 to 300 do
        let units_of, groups = random_solution st (keys_of g) in
        let got = D.groups_feasible g ~units_of groups in
        if got <> oracle_groups_feasible g ~units_of groups then
          Alcotest.failf "%s: groups_feasible [%s] = %b, contracted unit graph says %b"
            a.app_name
            (String.concat " | " (List.map (String.concat "; ") groups))
            got (not got);
        incr (if got then yes else no)
      done)
    (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ());
  Alcotest.(check bool) "both verdicts exercised" true (!yes > 100 && !no > 100)

(* p -> r through A and s -> q through B, nothing else *)
let crossed_prog () =
  let dims = (8, 4, 2) in
  let kernels = [ ("p", "X", "A"); ("s", "X", "B"); ("q", "B", "C"); ("r", "A", "D") ] in
  {
    p_name = "crossed";
    p_arrays = List.map (Util.arr3 dims) [ "X"; "A"; "B"; "C"; "D" ];
    p_kernels =
      Kft_cuda.Parse.kernels
        (String.concat "" (List.map (fun (k, a, dst) -> Util.pointwise_src ~name:k ~a ~b:a ~dst) kernels));
    p_schedule =
      List.map
        (fun (k, a, dst) ->
          Launch
            { l_kernel = k; l_domain = (8, 4, 1); l_block = (8, 4, 1);
              l_args = Util.std_args dims [ a; a; dst ] 0.5 })
        kernels;
  }

let test_groups_feasible_crossed () =
  let g = D.build (crossed_prog ()) in
  let whole k = [ k ] in
  (* each pair is fine alone; together each needs the other first *)
  Alcotest.(check bool) "p+q alone" true (D.fusion_feasible g [ "p"; "q" ]);
  Alcotest.(check bool) "s+r alone" true (D.fusion_feasible g [ "s"; "r" ]);
  Alcotest.(check bool) "crossed pairs (oracle)" false
    (oracle_groups_feasible g ~units_of:whole [ [ "p"; "q" ]; [ "s"; "r" ] ]);
  Alcotest.(check bool) "crossed pairs" false
    (D.groups_feasible g ~units_of:whole [ [ "p"; "q" ]; [ "s"; "r" ] ]);
  Alcotest.(check bool) "parallel pairs" true
    (D.groups_feasible g ~units_of:whole [ [ "p"; "s" ]; [ "q"; "r" ] ])

let test_groups_feasible_cases () =
  let g = D.build (chain_prog 4) in
  let whole k = [ k ] in
  let split k = if k = "k1" then [ "k1__f0"; "k1__f1" ] else [ k ] in
  List.iter
    (fun (what, units_of, groups, want) ->
      Alcotest.(check bool) (what ^ " (oracle)") want (oracle_groups_feasible g ~units_of groups);
      Alcotest.(check bool) what want (D.groups_feasible g ~units_of groups))
    [
      ("disjoint adjacent pairs", whole, [ [ "k0"; "k1" ]; [ "k2"; "k3" ] ], true);
      ("one group skipping a node", whole, [ [ "k0"; "k2" ] ], false);
      ("both parts fused with neighbours", split, [ [ "k0"; "k1__f0"; "k1__f1"; "k2" ] ], true);
      (* the other part of k1 sits between k0 and k2 *)
      ("one part fused across", split, [ [ "k0"; "k1__f0"; "k2" ] ], false);
      ("parts are unordered", split, [ [ "k1__f0"; "k1__f1" ] ], true);
      ("an unknown unit is ignored", whole, [ [ "k0"; "nope" ]; [ "k1"; "k2" ] ], true);
    ]

let test_escape_through_member () =
  let g = D.build (chain_prog 4) in
  (* from k0 the only way out of {k0, k1, k3} is k0 -> k1 -> k2: the path
     leaves the group at k1, a member, and comes back at k3 *)
  List.iter
    (fun group ->
      Alcotest.(check bool) (String.concat "+" group) (oracle_feasible g group)
        (D.fusion_feasible g group))
    [ [ "k0"; "k1"; "k3" ]; [ "k0"; "k3" ]; [ "k1"; "k3" ]; [ "k0"; "k1"; "k2" ] ];
  Alcotest.(check bool) "k0+k1+k3 infeasible" false (D.fusion_feasible g [ "k0"; "k1"; "k3" ]);
  Alcotest.(check bool) "k0+k1+k2 feasible" true (D.fusion_feasible g [ "k0"; "k1"; "k2" ])

let test_unknown_key_ignored () =
  let g = D.build (chain_prog 4) in
  List.iter
    (fun (group, want) ->
      let what = String.concat "+" group in
      Alcotest.(check bool) (what ^ " (oracle)") want (oracle_feasible g group);
      Alcotest.(check bool) what want (D.fusion_feasible g group))
    [
      ([ "k0"; "nope"; "k1" ], true);
      ([ "k0"; "nope"; "k2" ], false);
      ([ "nope"; "k2" ], true);
      ([ "nope"; "other" ], true);
    ];
  Alcotest.check_raises "precedence of an unknown key" (G.No_such_node "nope") (fun () ->
      ignore (D.oeg_precedes g "k0" "nope"))

let suite =
  [
    Alcotest.test_case "arrays touched" `Quick test_arrays_touched;
    Alcotest.test_case "DDG structure (Algorithm 1)" `Quick test_ddg_structure;
    Alcotest.test_case "OEG precedence" `Quick test_oeg_precedence;
    Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
    Alcotest.test_case "fusion feasibility" `Quick test_fusion_feasible;
    Alcotest.test_case "internal precedence" `Quick test_internal_precedence;
    Alcotest.test_case "multi-writer versioning" `Quick test_multi_writer_versioning;
    Alcotest.test_case "repeated invocation keys" `Quick test_repeated_invocation_keys;
    Alcotest.test_case "DOT outputs" `Quick test_dot_outputs;
    Alcotest.test_case "reachability index = quotient oracle (bundled apps)" `Quick
      test_index_matches_oracle_on_apps;
    QCheck_alcotest.to_alcotest prop_index_matches_oracle_on_fuzzed_chains;
    Alcotest.test_case "escape path through a member" `Quick test_escape_through_member;
    Alcotest.test_case "keys outside the OEG are ignored" `Quick test_unknown_key_ignored;
    Alcotest.test_case "solution feasibility = contracted unit graph (bundled apps)" `Quick
      test_groups_feasible_matches_oracle;
    Alcotest.test_case "solution feasibility: fission parts" `Quick test_groups_feasible_cases;
    Alcotest.test_case "solution feasibility: crossed groups" `Quick test_groups_feasible_crossed;
  ]
