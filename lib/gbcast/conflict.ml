type relation = Gc_net.Payload.t -> Gc_net.Payload.t -> bool

let none _ _ = false
let all _ _ = true

type klass = Commuting | Ordered

let by_class ~classify m m' =
  match (classify m, classify m') with
  | Commuting, Commuting -> false
  | Commuting, Ordered | Ordered, Commuting | Ordered, Ordered -> true

type index = {
  classes : int;
  classify : Gc_net.Payload.t -> int;
  matrix : int -> int -> bool;
}

type t = Relation of relation | Indexed of index

let of_relation r = Relation r

let indexed ~classes ~classify ~matrix =
  if classes < 1 then invalid_arg "Conflict.indexed: classes < 1";
  Indexed { classes; classify; matrix }

let two_class ~classify =
  Indexed
    {
      classes = 2;
      classify = (fun p -> match classify p with Commuting -> 0 | Ordered -> 1);
      matrix = (fun a b -> a <> 0 || b <> 0);
    }

let check = function
  | Relation r -> r
  | Indexed { classify; matrix; _ } ->
      fun m m' -> matrix (classify m) (classify m')
