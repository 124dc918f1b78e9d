type t = {
  mutable names : string array;
  mutable nvars : int;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable weights : float array;
  mutable nedges : int;
  mutable frames : int list;
  mutable epoch : int;
}

let create () =
  {
    names = Array.make 16 "";
    nvars = 0;
    srcs = Array.make 64 0;
    dsts = Array.make 64 0;
    weights = Array.make 64 0.0;
    nedges = 0;
    frames = [];
    epoch = 0;
  }

let new_var t name =
  if t.nvars = Array.length t.names then begin
    let bigger = Array.make (2 * t.nvars) "" in
    Array.blit t.names 0 bigger 0 t.nvars;
    t.names <- bigger
  end;
  t.names.(t.nvars) <- name;
  t.nvars <- t.nvars + 1;
  t.nvars - 1

let nvars t = t.nvars

let add_edge t ~src ~dst ~weight =
  if src < 0 || src >= t.nvars || dst < 0 || dst >= t.nvars then
    invalid_arg "Dgraph.add_edge: bad variable";
  if t.nedges = Array.length t.srcs then begin
    let grow a zero =
      let bigger = Array.make (2 * Array.length a) zero in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    t.srcs <- grow t.srcs 0;
    t.dsts <- grow t.dsts 0;
    t.weights <- grow t.weights 0.0
  end;
  t.srcs.(t.nedges) <- src;
  t.dsts.(t.nedges) <- dst;
  t.weights.(t.nedges) <- weight;
  t.nedges <- t.nedges + 1;
  t.epoch <- t.epoch + 1

let push t = t.frames <- t.nedges :: t.frames

let pop t =
  match t.frames with
  | [] -> invalid_arg "Dgraph.pop: no frame"
  | n :: rest ->
    (* A frame with no edges leaves the edge set — and hence any
       edge-set-derived cache — untouched. *)
    if t.nedges <> n then t.epoch <- t.epoch + 1;
    t.nedges <- n;
    t.frames <- rest

let epoch t = t.epoch

(* Bellman-Ford longest-path relaxation.  Returns [None] on a positive
   cycle (some distance still improves after nvars rounds). *)
let relax_forward t dist =
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= t.nvars do
    changed := false;
    incr rounds;
    for e = 0 to t.nedges - 1 do
      let s = t.srcs.(e) and d = t.dsts.(e) and w = t.weights.(e) in
      if dist.(s) > neg_infinity && dist.(s) +. w > dist.(d) +. 1e-9 then begin
        dist.(d) <- dist.(s) +. w;
        changed := true
      end
    done
  done;
  if !changed then None else Some dist

let asap t = relax_forward t (Array.make t.nvars 0.0)

let alap t ~deadline =
  if Array.length deadline <> t.nvars then invalid_arg "Dgraph.alap: deadline length";
  match asap t with
  | None -> None
  | Some lo ->
    let ub = Array.copy deadline in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= t.nvars do
      changed := false;
      incr rounds;
      for e = 0 to t.nedges - 1 do
        let s = t.srcs.(e) and d = t.dsts.(e) and w = t.weights.(e) in
        if ub.(d) < infinity && ub.(d) -. w < ub.(s) -. 1e-9 then begin
          ub.(s) <- ub.(d) -. w;
          changed := true
        end
      done
    done;
    if !changed then None
    else begin
      (* A variable with no upper bound sits at its minimum. *)
      let ok = ref true in
      let out =
        Array.init t.nvars (fun v ->
            if ub.(v) = infinity then lo.(v)
            else begin
              if ub.(v) +. 1e-6 < lo.(v) then ok := false;
              ub.(v)
            end)
      in
      if !ok then Some out else None
    end

let longest_paths_to t ~dst =
  if dst < 0 || dst >= t.nvars then invalid_arg "Dgraph.longest_paths_to: bad variable";
  let dist = Array.make t.nvars neg_infinity in
  dist.(dst) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= t.nvars do
    changed := false;
    incr rounds;
    for e = 0 to t.nedges - 1 do
      let s = t.srcs.(e) and d = t.dsts.(e) and w = t.weights.(e) in
      if dist.(d) > neg_infinity && dist.(d) +. w > dist.(s) +. 1e-9 then begin
        dist.(s) <- dist.(d) +. w;
        changed := true
      end
    done
  done;
  if !changed then invalid_arg "Dgraph.longest_paths_to: positive cycle";
  dist

let longest_path t ~src ~dst =
  if src < 0 || src >= t.nvars || dst < 0 || dst >= t.nvars then
    invalid_arg "Dgraph.longest_path: bad variable";
  let dist = Array.make t.nvars neg_infinity in
  dist.(src) <- 0.0;
  match relax_forward t dist with
  | Some d -> d.(dst)
  | None -> invalid_arg "Dgraph.longest_path: positive cycle"
