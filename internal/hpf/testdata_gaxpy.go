package hpf

// GaxpySource is the paper's Figure 3 program — GAXPY matrix
// multiplication in (mini-)HPF — parameterized by n and the processor
// count through its PARAMETER statement. It is shared by tests, the
// compiler and the examples.
const GaxpySource = `parameter (n=64, nprocs=4)
real a(n,n), b(n,n), c(n,n), temp(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: a, c, temp
!hpf$ align (:,*) with d :: b
do j=1, n
  FORALL (k=1:n)
    temp(1:n,k) = b(k,j)*a(1:n,k)
  end FORALL
  c(1:n,j) = SUM(temp,2)
end do
end
`

// TransposeSource is an out-of-core transpose program: the compiler
// recognizes it as a collective redistribution with swapped global
// indices and selects the destination write strategy (direct, sieved,
// two-phase) with the cost model.
const TransposeSource = `parameter (n=64, nprocs=4)
real a(n,n), b(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: a, b
FORALL (k=1:n)
  b(1:n,k) = a(k,1:n)
end FORALL
end
`

// EwiseSource is an elementwise multi-statement FORALL program used to
// exercise the compiler's second pattern class: scaled array updates with
// no communication.
const EwiseSource = `parameter (n=64, nprocs=4, alpha=3)
real x(n,n), y(n,n), z(n,n), w(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: x, y, z, w
FORALL (k=1:n)
  z(1:n,k) = alpha*x(1:n,k) + y(1:n,k) - 1
end FORALL
FORALL (k=1:n)
  w(1:n,k) = z(1:n,k) * x(1:n,k) / 2
end FORALL
end
`

// ColumnStencilSource is a column stencil whose shifted references cross
// the BLOCK boundaries: the compiler's shift class, a boundary-column
// exchange followed by a halo-widened slab loop.
const ColumnStencilSource = `parameter (n=64, nprocs=4)
real x(n,n), z(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: x, z
FORALL (k=2:n-1)
  z(1:n,k) = (x(1:n,k-1) + 2*x(1:n,k) + x(1:n,k+1)) / 4
end FORALL
end
`

// JacobiSource is the 2-D Jacobi relaxation, iters trips of two
// ping-pong sweeps (a into b, then b into a) over the interior: a time
// loop around two shifted statements whose row sections read the
// neighbors above and below. The boundary rows and columns stay as
// filled. (x)/4 is bitwise 0.25*(x): the lexer has no real literals.
const JacobiSource = `parameter (n=64, nprocs=4, iters=3)
real a(n,n), b(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: a, b
do it=1, iters
  FORALL (k=2:n-1)
    b(2:n-1,k) = (a(1:n-2,k) + a(3:n,k) + a(2:n-1,k-1) + a(2:n-1,k+1)) / 4
  end FORALL
  FORALL (k=2:n-1)
    a(2:n-1,k) = (b(1:n-2,k) + b(3:n,k) + b(2:n-1,k-1) + b(2:n-1,k+1)) / 4
  end FORALL
end do
end
`
