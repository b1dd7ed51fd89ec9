(* Plain-OCaml transcriptions of six corpus programs: results computed
   with no part of the compiler, to check the reference results the
   benchmark takes from the unoptimised programs. Each follows its
   source in perfbench/inputs/corpus line for line. *)

(* example-tak: tak 10 5 0 *)
let tak () =
  let rec tak x y z =
    if y >= x then z else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)
  in
  tak 10 5 0

(* example-collatz: the longest trajectory for 1..60 *)
let collatz () =
  let steps n =
    let rec go k count =
      if k <= 1 then count
      else if k mod 2 = 0 then go (k / 2) (count + 1)
      else go ((3 * k) + 1) (count + 1)
    in
    go n 0
  in
  let rec best n record = if n > 60 then record else best (n + 1) (max record (steps n)) in
  best 1 0

(* example-primes: the sum of the first 20 primes up to 150 *)
let primes () =
  let rec sieve = function
    | [] -> []
    | x :: rest -> x :: sieve (List.filter (fun y -> y mod x <> 0) rest)
  in
  let ps = sieve (List.init 149 (fun i -> i + 2)) in
  List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 20) ps)

(* bench-queens: solutions of 6 queens *)
let queens () =
  let rec safe q d = function
    | [] -> true
    | pq :: rest -> pq <> q && pq <> q + d && pq <> q - d && safe q (d + 1) rest
  in
  let rec count n placed row =
    if row > n then 1
    else
      let rec try_ q acc =
        if q > n then acc
        else if safe q 1 placed then try_ (q + 1) (acc + count n (q :: placed) (row + 1))
        else try_ (q + 1) acc
      in
      try_ 1 0
  in
  count 6 [] 1

(* example-sort: the sum of the 5 smallest of 40 pseudo-random numbers *)
let sort () =
  let lcg s = s * 48271 mod 2147483647 in
  let rec randoms n seed = if n <= 0 then [] else (seed mod 1000) :: randoms (n - 1) (lcg seed) in
  let sorted = List.stable_sort compare (randoms 40 7) in
  List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 5) sorted)

(* bench-fibheaps: draining a heap sums every inserted key *)
let fibheaps () =
  let rec fill seed n acc =
    if n <= 0 then acc else fill (((seed * 1103515245) + 12345) mod 1048573) (n - 1) (acc + (seed mod 1000))
  in
  fill 42 400 0

let all =
  [
    ("example-tak", tak);
    ("example-collatz", collatz);
    ("example-primes", primes);
    ("bench-queens", queens);
    ("example-sort", sort);
    ("bench-fibheaps", fibheaps);
  ]
