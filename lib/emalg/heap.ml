(* The slot array is allocated on the first push, filled with that element,
   so slots hold elements directly and no push allocates an option.  Slots
   at or beyond [size] hold stale elements that are never read. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  capacity : int;
  mutable slots : 'a array;
  mutable size : int;
}

let create ~cmp ~capacity =
  if capacity < 1 then invalid_arg "Heap.create: capacity must be >= 1";
  { cmp; capacity; slots = [||]; size = 0 }

let size h = h.size
let is_empty h = h.size = 0

let swap h i j =
  let tmp = h.slots.(i) in
  h.slots.(i) <- h.slots.(j);
  h.slots.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.slots.(i) h.slots.(parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && h.cmp h.slots.(left) h.slots.(!smallest) < 0 then
    smallest := left;
  if right < h.size && h.cmp h.slots.(right) h.slots.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h x =
  if Array.length h.slots = 0 then h.slots <- Array.make h.capacity x
  else if h.size = Array.length h.slots then begin
    let grown = Array.make (2 * h.size) x in
    Array.blit h.slots 0 grown 0 h.size;
    h.slots <- grown
  end;
  h.slots.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min h =
  if h.size = 0 then invalid_arg "Heap.min: empty heap";
  h.slots.(0)

let pop h =
  let top = min h in
  h.size <- h.size - 1;
  h.slots.(0) <- h.slots.(h.size);
  if h.size > 0 then sift_down h 0;
  top
