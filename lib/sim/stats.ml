type sample = { mutable data : float array; mutable size : int }

let sample () = { data = [||]; size = 0 }

let add s x =
  let cap = Array.length s.data in
  if s.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ndata = Array.make ncap 0.0 in
    Array.blit s.data 0 ndata 0 s.size;
    s.data <- ndata
  end;
  s.data.(s.size) <- x;
  s.size <- s.size + 1

let count s = s.size

let fold f init s =
  let acc = ref init in
  for i = 0 to s.size - 1 do
    acc := f !acc s.data.(i)
  done;
  !acc

let mean s =
  if s.size = 0 then nan else fold ( +. ) 0.0 s /. float_of_int s.size

let min_value s = if s.size = 0 then nan else fold Float.min infinity s
let max_value s = if s.size = 0 then nan else fold Float.max neg_infinity s

let percentile s p =
  if s.size = 0 then nan
  else begin
    let sorted = Array.sub s.data 0 s.size in
    Array.sort Float.compare sorted;
    let rank = p /. 100.0 *. float_of_int (s.size - 1) in
    let lo = int_of_float (Float.floor rank)
    and hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median s = percentile s 50.0

let fmt_ms x =
  if Float.is_nan x then "-"
  else if Float.abs x >= 1000.0 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 10.0 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.2f" x

let print_table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  let note_row r =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) r
  in
  List.iter note_row all;
  let print_row r =
    let cells =
      List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) r
    in
    print_endline ("  " ^ String.concat "  " cells)
  in
  print_row header;
  let rule = List.init (List.length header) (fun i -> String.make widths.(i) '-') in
  print_row rule;
  List.iter print_row rows
