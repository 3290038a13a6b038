type t = {
  classes : int;
  classify : Gc_net.Payload.t -> int;
  matrix : int -> int -> bool;
}

let make ~classes ~classify ~matrix =
  if classes < 1 then invalid_arg "Conflict.make: classes < 1";
  for a = 0 to classes - 1 do
    for b = a + 1 to classes - 1 do
      if matrix a b <> matrix b a then
        invalid_arg "Conflict.make: matrix not symmetric"
    done
  done;
  { classes; classify; matrix }

let one_class self =
  { classes = 1; classify = (fun _ -> 0); matrix = (fun _ _ -> self) }

let none = one_class false
let all = one_class true

type klass = Commuting | Ordered

let two_class ~classify =
  {
    classes = 2;
    classify = (fun p -> match classify p with Commuting -> 0 | Ordered -> 1);
    matrix = (fun a b -> a <> 0 || b <> 0);
  }

let conflicts c m m' = c.matrix (c.classify m) (c.classify m')

(* The probed message is one of [occupancy.(k)]: it blocks itself only if
   another message of its class is tracked. *)
let blocked c ~occupancy k =
  let rec probe j =
    j < c.classes
    && ((occupancy.(j) > (if j = k then 1 else 0) && c.matrix k j)
       || probe (j + 1))
  in
  probe 0
