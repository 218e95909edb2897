/* Known defect: paper Listing 6. The Listing-5 rule compares names only,
   so `alias[i] = func(array, i)` passes it, and the polyhedral model
   treats alias and array as different arrays: the loop-carried
   dependence is parallelized into a race.
   usage: listing6_alias SEED N */
#include <stdio.h>
#include <stdlib.h>

pure int func(pure int* a, int idx) {
  return a[idx - 1] + a[idx];
}

int main(int argc, char** argv) {
  if (argc < 3) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int* array = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) {
    array[i] = (i * 3 + 1 + seed) % 17;
  }
  int* alias = array;
  for (int i = 1; i < n; i++) {
    alias[i] = func(array, i);
  }
  long checksum = 0;
  for (int i = 0; i < n; i++) checksum += (long)array[i] * (i % 9);
  printf("checksum %ld\n", checksum);
  return 0;
}
