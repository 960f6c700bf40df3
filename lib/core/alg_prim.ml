module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng

(* Algorithm 4 is [Multi_group.prim_for_users] over every user, on a
   fresh capacity state, grown from the chosen start user. *)
let solve ?start ?rng ?budget g params =
  let users = Graph.users g in
  match users with
  | [] | [ _ ] -> Some (Ent_tree.of_channels [])
  | first :: _ ->
      let start =
        match (start, rng) with
        | Some s, _ ->
            if not (Graph.is_user g s) then
              invalid_arg "Alg_prim.solve: start is not a user";
            s
        | None, Some rng -> Prng.pick rng (Array.of_list users)
        | None, None -> first
      in
      Multi_group.prim_for_users ?budget g params
        ~capacity:(Capacity.of_graph g)
        ~users:(start :: List.filter (fun u -> u <> start) users)
