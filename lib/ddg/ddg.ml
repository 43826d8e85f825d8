open Kft_cuda.Ast
module G = Kft_graph.Digraph

type invocation = {
  inv_key : string;
  inv_kernel : string;
  inv_index : int;
  inv_launch : launch;
}

type node =
  | Kernel_node of invocation
  | Array_node of { base : string; version : int }

(* OEG reachability index. Node [i] is the [i]-th invocation in schedule
   order; [desc.(i)] and [anc.(i)] are bitsets ([Sys.int_size] bits per
   word) of its strict descendants and ancestors. Built once by [build]
   and never written afterwards, so the search's worker domains read it
   without a lock. *)
type reach = {
  index : (string, int) Hashtbl.t;
  desc : int array array;
  anc : int array array;
}

type t = {
  ddg : node G.t;
  oeg : node G.t;
  invocations : invocation list;
  versioned_arrays : (string * int) list;
  reach : reach;
}

let word_bits = Sys.int_size

let bit_mem s i = s.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let bit_add s i = s.(i / word_bits) <- s.(i / word_bits) lor (1 lsl (i mod word_bits))

let bit_union dst src = Array.iteri (fun w x -> dst.(w) <- dst.(w) lor x) src

let words_for n = (n + word_bits - 1) / word_bits

let dedup l =
  let seen = Hashtbl.create 8 in
  List.filter (fun x -> if Hashtbl.mem seen x then false else (Hashtbl.replace seen x (); true)) l

let arrays_touched prog (l : launch) =
  let k = find_kernel prog l.l_kernel in
  let binding = bind_args k l.l_args in
  let host p = match List.assoc_opt p binding with Some (Arg_array h) -> Some h | _ -> None in
  let shared_names =
    fold_stmts (fun acc s -> match s with Shared_decl (_, n, _) -> n :: acc | _ -> acc) [] k.k_body
  in
  let global p = not (List.mem p shared_names) in
  let reads =
    arrays_read k.k_body |> List.filter global |> List.filter_map host |> dedup
  in
  let writes =
    arrays_written k.k_body |> List.filter global |> List.filter_map host |> dedup
  in
  (reads, writes)

let array_key base version =
  if version = 0 then base else Printf.sprintf "%s@%d" base version

let build prog =
  let invocations =
    let counts = Hashtbl.create 16 in
    List.filteri (fun _ _ -> true) prog.p_schedule
    |> List.filter_map (function Launch l -> Some l | _ -> None)
    |> List.mapi (fun i l ->
           let n = Option.value ~default:0 (Hashtbl.find_opt counts l.l_kernel) in
           Hashtbl.replace counts l.l_kernel (n + 1);
           let inv_key = if n = 0 then l.l_kernel else Printf.sprintf "%s#%d" l.l_kernel (n + 1) in
           { inv_key; inv_kernel = l.l_kernel; inv_index = i; inv_launch = l })
  in
  let ddg = G.create () in
  (* multi-writer versioning: current version per array; a write by a
     second (or later) distinct invocation bumps the version, creating a
     redundant instance *)
  let version : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let writers : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let max_version : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let ensure_array base v =
    let key = array_key base v in
    G.ensure_node ddg ~key (Array_node { base; version = v });
    key
  in
  List.iter
    (fun inv ->
      G.add_node ddg ~key:inv.inv_key (Kernel_node inv);
      let reads, writes = arrays_touched prog inv.inv_launch in
      List.iter
        (fun a ->
          let v = Option.value ~default:0 (Hashtbl.find_opt version a) in
          let key = ensure_array a v in
          G.add_edge ddg key inv.inv_key)
        reads;
      List.iter
        (fun a ->
          let prev_writers = Option.value ~default:[] (Hashtbl.find_opt writers a) in
          let v =
            if prev_writers = [] || List.mem inv.inv_key prev_writers then
              Option.value ~default:0 (Hashtbl.find_opt version a)
            else begin
              (* a distinct second writer: redundant instance *)
              let v = Option.value ~default:0 (Hashtbl.find_opt max_version a) + 1 in
              Hashtbl.replace max_version a v;
              Hashtbl.replace version a v;
              v
            end
          in
          Hashtbl.replace writers a (inv.inv_key :: prev_writers);
          let key = ensure_array a v in
          G.add_edge ddg inv.inv_key key)
        writes)
    invocations;
  let versioned_arrays =
    Hashtbl.fold (fun a v acc -> (a, v + 1) :: acc) max_version [] |> List.sort compare
  in
  (* OEG: RAW / WAR / WAW between invocations in schedule order; the host
     invocation order orients every dependence, which is exactly the
     cycle-breaking heuristic of Section 3.2.3. Every edge points forward
     in the schedule, so reverse schedule order is a topological order
     for the descendant closure (and forward order for the ancestors). *)
  let invs = Array.of_list invocations in
  let n = Array.length invs in
  let touched = Array.map (fun inv -> arrays_touched prog inv.inv_launch) invs in
  let depends i j =
    let ra, wa = touched.(i) and rb, wb = touched.(j) in
    let inter x y = List.exists (fun e -> List.mem e y) x in
    inter wa rb || inter ra wb || inter wa wb
  in
  let succs = Array.make n [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if depends i j then succs.(i) <- j :: succs.(i)
    done
  done;
  let words = words_for n in
  let desc = Array.init n (fun _ -> Array.make words 0) in
  for i = n - 1 downto 0 do
    List.iter (fun j -> bit_add desc.(i) j; bit_union desc.(i) desc.(j)) succs.(i)
  done;
  let anc = Array.init n (fun _ -> Array.make words 0) in
  Array.iteri (fun i d -> for j = i + 1 to n - 1 do if bit_mem d j then bit_add anc.(j) i done) desc;
  (* transitive reduction for readability (the DOT files the programmer
     inspects): keep i -> j only when no other successor of i reaches j;
     reachability is preserved *)
  let oeg = G.create () in
  Array.iter (fun inv -> G.add_node oeg ~key:inv.inv_key (Kernel_node inv)) invs;
  Array.iteri
    (fun i js ->
      List.iter
        (fun j ->
          if not (List.exists (fun c -> c <> j && bit_mem desc.(c) j) js) then
            G.add_edge oeg invs.(i).inv_key invs.(j).inv_key)
        js)
    succs;
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i inv -> Hashtbl.replace index inv.inv_key i) invs;
  { ddg; oeg; invocations; versioned_arrays; reach = { index; desc; anc } }

let oeg_index t k =
  match Hashtbl.find_opt t.reach.index k with Some i -> i | None -> raise (G.No_such_node k)

let oeg_precedes t a b =
  a <> b
  &&
  let i = oeg_index t a in
  let j = oeg_index t b in
  bit_mem t.reach.desc.(i) j

(* Closure of a member set S: (S, descendants of S, ancestors of S). *)
let closure t members =
  let words = words_for (Array.length t.reach.desc) in
  let s = Array.make words 0 and d = Array.make words 0 and a = Array.make words 0 in
  List.iter
    (fun i ->
      bit_add s i;
      bit_union d t.reach.desc.(i);
      bit_union a t.reach.anc.(i))
    members;
  (s, d, a)

(* x ∩ y ⊆ z *)
let within x y z =
  let rec go w = w >= Array.length x || (x.(w) land y.(w) land lnot z.(w) = 0 && go (w + 1)) in
  go 0

let meets x y = Array.exists2 (fun a b -> a land b <> 0) x y

(* Contracting the members S (names outside the OEG are ignored) creates a
   cycle iff some node outside S is both a descendant and an ancestor of
   S: a path u ~> w ~> v with u, v in S. If it runs through other members,
   the last member before w and the first after it bound a path that
   leaves S and comes back, and they differ because the OEG is a DAG. *)
let fusion_feasible t group =
  match List.filter_map (Hashtbl.find_opt t.reach.index) group with
  | [] | [ _ ] -> true
  | members ->
      let s, d, a = closure t members in
      within d a s

(* Units inherit their invocation's edges, so unit x reaches unit y iff
   inv(x) strictly reaches inv(y). The contracted unit graph has a cycle
   iff (a) one group has a path that leaves it and comes back, through a
   unit of an invocation that is not wholly inside the group, or (b) the
   graph of groups with an edge g -> h whenever a unit of g reaches a
   unit of h is cyclic: a cycle through two or more groups lifts to such
   edges, and a cycle of such edges gives a closed walk through two or
   more contracted nodes. A group of one unit closes no cycle, and a
   path through it is a path between the groups on either side, so only
   groups of two or more units are checked. *)
let groups_feasible t ~units_of groups =
  let index = t.reach.index in
  let n = Hashtbl.length index in
  (* unit -> invocation, and the unit count of each invocation *)
  let origin = Hashtbl.create (2 * n) and units = Array.make n 0 in
  Hashtbl.iter
    (fun k i ->
      List.iter
        (fun u ->
          if not (Hashtbl.mem origin u) then begin
            Hashtbl.replace origin u i;
            units.(i) <- units.(i) + 1
          end)
        (units_of k))
    index;
  let gid = Hashtbl.create 64 in
  List.iteri
    (fun g group -> List.iter (fun u -> if Hashtbl.mem origin u then Hashtbl.replace gid u g) group)
    groups;
  let members = Array.make (List.length groups) [] in
  Hashtbl.iter (fun u g -> members.(g) <- Hashtbl.find origin u :: members.(g)) gid;
  let members =
    Array.of_list (List.filter (fun ms -> List.compare_length_with ms 2 >= 0) (Array.to_list members))
  in
  let closures = Array.map (closure t) members in
  let escapes g =
    let s, d, a = closures.(g) in
    let whole = Array.make (Array.length s) 0 in
    List.iter
      (fun i -> if List.length (List.filter (( = ) i) members.(g)) = units.(i) then bit_add whole i)
      members.(g);
    not (within d a whole)
  in
  let m = Array.length members in
  let reaches g h =
    let _, d, _ = closures.(g) and s, _, _ = closures.(h) in
    g <> h && meets d s
  in
  let state = Array.make m `New in
  let rec acyclic g =
    match state.(g) with
    | `Done -> true
    | `Open -> false
    | `New ->
        state.(g) <- `Open;
        let ok = List.for_all (fun h -> not (reaches g h) || acyclic h) (List.init m Fun.id) in
        state.(g) <- `Done;
        ok
  in
  List.for_all (fun g -> not (escapes g)) (List.init m Fun.id)
  && List.for_all acyclic (List.init m Fun.id)

let group_has_internal_precedence t group =
  List.exists (fun a -> List.exists (fun b -> oeg_precedes t a b) group) group

let node_attrs _key = function
  | Kernel_node inv -> [ ("shape", "box"); ("label", inv.inv_key) ]
  | Array_node { base; version } ->
      [
        ("shape", "ellipse");
        ("label", if version = 0 then base else Printf.sprintf "%s (copy %d)" base version);
        ("style", "dashed");
      ]

let ddg_dot t = G.to_dot ~graph_name:"DDG" ~node_attrs:(fun k p -> node_attrs k p) t.ddg

let oeg_dot t = G.to_dot ~graph_name:"OEG" ~node_attrs:(fun k p -> node_attrs k p) t.oeg

let oeg_of_amended_dot t text =
  let known k = G.mem_node t.oeg k in
  G.of_dot_edges text |> List.filter (fun (a, b) -> known a && known b)
